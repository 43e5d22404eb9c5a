#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

#include "util/diagnostics.h"
#include "util/failpoint.h"
#include "util/strings.h"
#include "util/timer.h"

namespace record::util {
namespace {

TEST(Strings, IsIdentifierAcceptsTypicalNames) {
  EXPECT_TRUE(is_identifier("acc"));
  EXPECT_TRUE(is_identifier("_tmp0"));
  EXPECT_TRUE(is_identifier("R2"));
}

TEST(Strings, IsIdentifierRejectsMalformed) {
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("2x"));
  EXPECT_FALSE(is_identifier("a-b"));
  EXPECT_FALSE(is_identifier("a.b"));
}

TEST(Strings, ToLowerIsAsciiOnly) {
  EXPECT_EQ(to_lower("PROCessor"), "processor");
  EXPECT_EQ(to_lower("R2_D"), "r2_d");
}

TEST(Strings, SplitPreservesEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitSingleField) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, TrimStripsBothEnds) {
  EXPECT_EQ(trim("  x "), "x");
  EXPECT_EQ(trim("\t\n a b \r"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ParseIntDecimal) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("0").value(), 0);
}

TEST(Strings, ParseIntHexAndBinary) {
  EXPECT_EQ(parse_int("0x1f").value(), 31);
  EXPECT_EQ(parse_int("0b101").value(), 5);
}

TEST(Strings, ParseIntRejectsGarbage) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("0x").has_value());
}

TEST(Strings, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, FmtSubstitutesInOrder) {
  EXPECT_EQ(fmt("{} + {} = {}", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(fmt("port '{}'", "dout"), "port 'dout'");
}

TEST(Strings, FmtHandlesBoolAndChar) {
  EXPECT_EQ(fmt("{} {}", true, 'x'), "true x");
}

TEST(Strings, FmtExtraPlaceholdersStayLiteral) {
  EXPECT_EQ(fmt("a {} b {}", 1), "a 1 b {}");
}

TEST(Diagnostics, SinkCountsBySeverity) {
  DiagnosticSink sink;
  sink.note({1, 1}, "n");
  sink.warning({2, 1}, "w");
  sink.error({3, 1}, "e");
  EXPECT_EQ(sink.error_count(), 1u);
  EXPECT_EQ(sink.warning_count(), 1u);
  EXPECT_FALSE(sink.ok());
  EXPECT_EQ(sink.all().size(), 3u);
}

TEST(Diagnostics, OkWithOnlyWarnings) {
  DiagnosticSink sink;
  sink.warning({}, "w");
  EXPECT_TRUE(sink.ok());
}

TEST(Diagnostics, FirstErrorSkipsNotes) {
  DiagnosticSink sink;
  sink.note({}, "first note");
  sink.error({7, 3}, "boom");
  EXPECT_NE(sink.first_error().find("boom"), std::string::npos);
  EXPECT_NE(sink.first_error().find("7:3"), std::string::npos);
}

TEST(Diagnostics, StrRendersAllLines) {
  DiagnosticSink sink;
  sink.error({1, 2}, "one");
  sink.error({3, 4}, "two");
  std::string s = sink.str();
  EXPECT_NE(s.find("one"), std::string::npos);
  EXPECT_NE(s.find("two"), std::string::npos);
}

TEST(Diagnostics, ClearResets) {
  DiagnosticSink sink;
  sink.error({}, "x");
  sink.clear();
  EXPECT_TRUE(sink.ok());
  EXPECT_TRUE(sink.empty());
}

TEST(Diagnostics, UnknownLocRendering) {
  SourceLoc loc;
  EXPECT_FALSE(loc.known());
  EXPECT_EQ(loc.str(), "<unknown>");
  EXPECT_EQ((SourceLoc{4, 7}).str(), "4:7");
}

TEST(Timer, MeasuresNonNegativeDurations) {
  Timer t;
  // Unsigned 64-bit: the sum (about 5.0e9) overflows a signed int.
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.milliseconds(), t.seconds());
}

TEST(PhaseTimes, RecordsAndTotals) {
  PhaseTimes pt;
  pt.record("ise", 1.5);
  pt.record("grammar", 0.5);
  EXPECT_DOUBLE_EQ(pt.total(), 2.0);
  EXPECT_DOUBLE_EQ(pt.get("ise"), 1.5);
  EXPECT_DOUBLE_EQ(pt.get("missing"), 0.0);
}

TEST(Failpoint, DisarmedSitesNeverFire) {
  failpoint_disarm_all();
  EXPECT_FALSE(failpoint("util_test.nowhere"));
  EXPECT_TRUE(failpoint_list().empty());
}

TEST(Failpoint, RejectsMalformedSpecs) {
  std::string error;
  EXPECT_FALSE(failpoint_arm("util_test.bad", "every:0", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(failpoint_arm("util_test.bad", "sleep:999999", &error));
  EXPECT_FALSE(failpoint_arm("util_test.bad", "bogus", &error));
  EXPECT_FALSE(failpoint_arm("util_test.bad", "every:x", &error));
  EXPECT_TRUE(failpoint_list().empty());  // nothing was armed by the rejects
}

TEST(Failpoint, OnceFiresExactlyOnce) {
  failpoint_disarm_all();
  ASSERT_TRUE(failpoint_arm("util_test.once", "once"));
  EXPECT_TRUE(failpoint("util_test.once"));
  EXPECT_FALSE(failpoint("util_test.once"));
  EXPECT_FALSE(failpoint("util_test.once"));
  std::vector<FailpointInfo> list = failpoint_list();
  ASSERT_EQ(list.size(), 1u);
  EXPECT_EQ(list[0].name, "util_test.once");
  EXPECT_EQ(list[0].hits, 3u);
  EXPECT_EQ(list[0].fires, 1u);
  failpoint_disarm_all();
}

TEST(Failpoint, EveryNFiresOnEachNthHit) {
  failpoint_disarm_all();
  ASSERT_TRUE(failpoint_arm("util_test.every", "every:3"));
  int fired = 0;
  for (int i = 0; i < 9; ++i)
    if (failpoint("util_test.every")) ++fired;
  EXPECT_EQ(fired, 3);  // hits 3, 6, 9
  // Re-arming resets the counts.
  ASSERT_TRUE(failpoint_arm("util_test.every", "every:1"));
  EXPECT_TRUE(failpoint("util_test.every"));
  failpoint_disarm_all();
}

TEST(Failpoint, SleepPassesButCountsAsFire) {
  failpoint_disarm_all();
  ASSERT_TRUE(failpoint_arm("util_test.sleep", "sleep:1"));
  const std::uint64_t before = failpoint_fire_total();
  EXPECT_FALSE(failpoint("util_test.sleep"));  // sleeps, then passes
  EXPECT_EQ(failpoint_fire_total(), before + 1);
  failpoint_disarm_all();
}

TEST(Failpoint, DisarmAndOffRemoveSites) {
  failpoint_disarm_all();
  ASSERT_TRUE(failpoint_arm("util_test.a", "once"));
  ASSERT_TRUE(failpoint_arm("util_test.b", "every:2"));
  EXPECT_EQ(failpoint_list().size(), 2u);
  EXPECT_TRUE(failpoint_disarm("util_test.a"));
  EXPECT_FALSE(failpoint_disarm("util_test.a"));  // already gone
  ASSERT_TRUE(failpoint_arm("util_test.b", "off"));  // "off" disarms too
  EXPECT_TRUE(failpoint_list().empty());
  EXPECT_FALSE(failpoint("util_test.a"));
}

TEST(Failpoint, InitFromEnvParsesList) {
  failpoint_disarm_all();
  ::setenv("UTIL_TEST_FAILPOINTS", "util_test.x=once;util_test.y=every:2", 1);
  EXPECT_EQ(failpoints_init_from_env("UTIL_TEST_FAILPOINTS"), 2);
  std::vector<FailpointInfo> list = failpoint_list();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].name, "util_test.x");
  EXPECT_EQ(list[0].spec, "once");
  EXPECT_EQ(list[1].name, "util_test.y");
  EXPECT_EQ(list[1].spec, "every:2");
  // Malformed entries are skipped, valid ones still arm.
  ::setenv("UTIL_TEST_FAILPOINTS", "bad spec=nope,util_test.z=sleep:1", 1);
  EXPECT_EQ(failpoints_init_from_env("UTIL_TEST_FAILPOINTS"), 1);
  ::unsetenv("UTIL_TEST_FAILPOINTS");
  failpoint_disarm_all();
}

}  // namespace
}  // namespace record::util
