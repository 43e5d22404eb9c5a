#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/record.h"
#include "dspstone/kernels.h"
#include "emit/asmout.h"
#include "emit/encode.h"
#include "ir/builder.h"
#include "models/workload.h"
#include "testgen/modelgen.h"
#include "testgen/programgen.h"

namespace record::emit {
namespace {

const core::RetargetResult& builtin(const std::string& model) {
  static std::map<std::string, std::unique_ptr<core::RetargetResult>> targets;
  std::unique_ptr<core::RetargetResult>& t = targets[model];
  if (!t) {
    util::DiagnosticSink diags;
    auto r = core::Record::retarget_model(model, core::RetargetOptions{},
                                          diags);
    EXPECT_TRUE(r) << model << ": " << diags.str();
    t = std::make_unique<core::RetargetResult>(std::move(*r));
  }
  return *t;
}

const core::RetargetResult& c25() { return builtin("tms320c25"); }

std::vector<std::string> hex_words(const Assembly& assembly) {
  std::vector<std::string> out;
  for (const EncodedWord& w : assembly.words) out.push_back(w.hex());
  return out;
}

core::CompileResult compile(const ir::Program& prog) {
  core::Compiler compiler(c25());
  util::DiagnosticSink diags;
  auto result = compiler.compile(prog, core::CompileOptions{}, diags);
  EXPECT_TRUE(result) << diags.str();
  return std::move(*result);
}

TEST(Encode, WordsHaveInstructionWidth) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.let("acc", ir::e_const(0));
  core::CompileResult r = compile(b.take());
  ASSERT_EQ(r.encoded.assembly.size(), 1u);
  EXPECT_EQ(r.encoded.assembly.words[0].bits.size(), 27u);
}

TEST(Encode, ImmediateValueAppearsInWord) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.cell("x", "ram", 5);
  b.let("acc", ir::e_var("x"));
  core::CompileResult r = compile(b.take());
  // LAC x: address field (bits 15:0) must hold 5.
  std::uint64_t word = r.encoded.assembly.words[0].to_u64();
  EXPECT_EQ(word & 0xffff, 5u);
}

TEST(Encode, OpcodeFieldDistinguishesInstructions) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.cell("x", "ram", 1).cell("h", "ram", 2);
  b.let("acc", ir::e_add(ir::e_var("acc"),
                         ir::e_mul(ir::e_var("x"), ir::e_var("h"))));
  core::CompileResult r = compile(b.take());
  ASSERT_EQ(r.encoded.assembly.size(), 3u);
  auto op = [&](int i) {
    return (r.encoded.assembly.words[static_cast<std::size_t>(i)].to_u64() >>
            22) & 0xf;
  };
  EXPECT_EQ(op(0), 6u);  // LT
  EXPECT_EQ(op(1), 7u);  // MPY
  EXPECT_EQ(op(2), 8u);  // APAC
}

TEST(Encode, SideEffectSuppressionZeroesUnusedUnits) {
  // LT x must not accidentally enable the accumulator or memory writes:
  // its word decodes to op=6 which the decoder maps to t_ld only.
  ir::ProgramBuilder b("t");
  b.reg("t", "T");
  b.cell("x", "ram", 1);
  b.let("t", ir::e_var("x"));
  core::CompileResult r = compile(b.take());
  ASSERT_EQ(r.encoded.assembly.size(), 1u);
  EXPECT_GT(r.encoded.stats.suppressed, 0u);
  std::uint64_t word = r.encoded.assembly.words[0].to_u64();
  EXPECT_EQ((word >> 22) & 0xf, 6u);  // LT opcode
}

TEST(Encode, BranchTargetsResolveToAddresses) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.let("acc", ir::e_const(0));   // word 0
  b.label("top");                 // address 1
  b.let("acc", ir::e_const(1));   // word 1
  b.program().branch_if_not_zero("acc", "top");  // word 2
  core::CompileResult r = compile(b.take());
  ASSERT_EQ(r.encoded.assembly.labels.count("top"), 1u);
  int target = r.encoded.assembly.labels.at("top");
  EXPECT_EQ(target, 1);
  std::uint64_t branch_word = r.encoded.assembly.words.back().to_u64();
  EXPECT_EQ(branch_word & 0xffff, static_cast<std::uint64_t>(target));
}

TEST(Encode, HexRendering) {
  EncodedWord w;
  w.bits = {true, false, true, false, true, false, true, false};  // 0x55
  EXPECT_EQ(w.hex(), "55");
  EXPECT_EQ(w.to_u64(), 0x55u);
}

TEST(Encode, RetargetPrecomputesWriteConditions) {
  const rtl::TemplateBase& base = *c25().base;
  ASSERT_FALSE(base.writers.storages.empty());
  const std::size_t nodes = base.mgr->node_count();
  // Recomputing finds every node already built at retarget time.
  const rtl::WriteConditions again = rtl::write_conditions(base);
  EXPECT_EQ(base.mgr->node_count(), nodes);
  EXPECT_EQ(again.cube_words, base.writers.cube_words);
  EXPECT_EQ(again.cubes, base.writers.cubes);
  EXPECT_EQ(again.facts, base.writers.facts);
  ASSERT_EQ(again.storages.size(), base.writers.storages.size());
  for (std::size_t i = 0; i < again.storages.size(); ++i) {
    const rtl::StorageWriters& a = again.storages[i];
    const rtl::StorageWriters& b = base.writers.storages[i];
    EXPECT_EQ(a.storage, b.storage);
    EXPECT_EQ(a.any, b.any) << a.storage;
    EXPECT_EQ(a.not_any, b.not_any) << a.storage;
    ASSERT_EQ(a.each.size(), b.each.size()) << a.storage;
    for (std::size_t j = 0; j < a.each.size(); ++j) {
      EXPECT_EQ(a.each[j].tmpl, b.each[j].tmpl);
      EXPECT_EQ(a.each[j].cond, b.each[j].cond);
      EXPECT_EQ(a.each[j].not_cond, b.each[j].not_cond);
    }
  }
}

// A target loaded from the cache rebuilds the same write conditions as the
// cold retarget, and encodes to the same bits.
TEST(Encode, CacheLoadedTargetCarriesWriteConditions) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "record-emit-writers-cache")
          .string();
  std::filesystem::remove_all(dir);
  core::RetargetOptions options;
  options.use_target_cache = true;
  options.cache_dir = dir;
  util::DiagnosticSink diags;
  auto cold = core::Record::retarget_model("tms320c25", options, diags);
  ASSERT_TRUE(cold) << diags.str();
  auto warm = core::Record::retarget_model("tms320c25", options, diags);
  ASSERT_TRUE(warm) << diags.str();
  EXPECT_TRUE(warm->cache_hit);
  std::filesystem::remove_all(dir);

  EXPECT_EQ(cold->base->writers.cubes, warm->base->writers.cubes);
  EXPECT_EQ(cold->base->writers.facts, warm->base->writers.facts);
  const std::vector<rtl::StorageWriters>& a = cold->base->writers.storages;
  const std::vector<rtl::StorageWriters>& b = warm->base->writers.storages;
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].storage, b[i].storage);
    ASSERT_EQ(a[i].each.size(), b[i].each.size()) << a[i].storage;
    for (std::size_t j = 0; j < a[i].each.size(); ++j)
      EXPECT_EQ(a[i].each[j].tmpl, b[i].each[j].tmpl);
  }
  const ir::Program prog = dspstone::kernel("fir");
  auto from_cold = core::Compiler(*cold).compile(prog, {}, diags);
  auto from_warm = core::Compiler(*warm).compile(prog, {}, diags);
  ASSERT_TRUE(from_cold && from_warm) << diags.str();
  EXPECT_EQ(hex_words(from_warm->encoded.assembly),
            hex_words(from_cold->encoded.assembly));
}

TEST(Encode, ReencodingIsIdenticalAndAddsNoNodes) {
  const core::RetargetResult& target = c25();
  core::CompileResult r =
      compile(models::chain_program(models::kChainShapes[5], 8));
  const std::size_t nodes = target.base->mgr->node_count();
  util::DiagnosticSink diags;
  EncodeResult again = encode(r.compacted.program, *target.base, diags);
  EXPECT_TRUE(diags.ok()) << diags.str();
  EXPECT_EQ(target.base->mgr->node_count(), nodes);
  EXPECT_EQ(hex_words(again.assembly), hex_words(r.encoded.assembly));
  EXPECT_EQ(again.stats.suppressed, r.encoded.stats.suppressed);
}

// Each cube holds exactly the instruction-bit literals its condition
// implies: I[k] with phase b iff restrict(cond, k, !b) is FALSE. The
// restricts add nodes, so the target is a private one.
TEST(EncodeCubes, CubesAreTheImpliedInstructionLiterals) {
  util::DiagnosticSink diags;
  auto target = core::Record::retarget_model("ref", {}, diags);
  ASSERT_TRUE(target) << diags.str();
  const rtl::TemplateBase& base = *target->base;
  const rtl::WriteConditions& wc = base.writers;
  bdd::BddManager& mgr = *base.mgr;
  const int iw = base.instruction_width;
  ASSERT_EQ(wc.cube_words, static_cast<std::size_t>((iw + 63) / 64));
  ASSERT_EQ(wc.cubes.size(), 2 * wc.cube_words *
                                 (wc.storages.size() + base.templates.size()));
  std::size_t literals = 0;
  auto expect_cube = [&](const std::uint64_t* cube, bdd::Ref cond) {
    for (int k = 0; k < iw; ++k) {
      const std::size_t w = static_cast<std::size_t>(k) / 64;
      const std::uint64_t bit = std::uint64_t{1} << (k % 64);
      const bool pos = (cube[w] & bit) != 0;
      const bool neg = (cube[wc.cube_words + w] & bit) != 0;
      EXPECT_EQ(pos, mgr.restrict(cond, k, false) == bdd::kFalse) << k;
      EXPECT_EQ(neg, mgr.restrict(cond, k, true) == bdd::kFalse) << k;
      literals += pos + neg;
    }
  };
  for (std::size_t s = 0; s < wc.storages.size(); ++s) {
    expect_cube(wc.any_cube(s), wc.storages[s].any);
    for (const rtl::StorageWriters::Writer& wr : wc.storages[s].each)
      expect_cube(wc.writer_cube(wr.tmpl), wr.cond);
  }
  EXPECT_GT(literals, base.templates.size());
}

// Every suppression term the cubes skip is a proven no-op: conjoining it
// into the word condition returns that condition. Covers chain32 on the
// six built-in models, the DSPStone kernels, and generated programs on
// testgen seeds 0..50, multi-issue machines included.
TEST(EncodeCubes, SkippedTermsAreNoOps) {
  std::size_t words = 0, skipped = 0, undecided = 0, multi_issue_words = 0;
  SuppressionTerms terms;
  auto check = [&](const rtl::TemplateBase& base,
                   const core::CompileResult& r, const std::string& name,
                   bool multi_issue) {
    bdd::BddManager& mgr = *base.mgr;
    for (const compact::CompactedRegion& region : r.compacted.program.regions)
      for (const compact::Word& w : region.words) {
        terms.collect(w, base);
        for (bdd::Ref t : terms.proven_noop)
          ASSERT_EQ(mgr.land(w.cond, t), w.cond) << name;
        skipped += terms.proven_noop.size();
        undecided += terms.undecided.size();
        ++words;
        if (multi_issue) ++multi_issue_words;
      }
  };

  for (const models::ChainShape& shape : models::kChainShapes) {
    util::DiagnosticSink diags;
    auto r = core::Compiler(builtin(shape.model))
                 .compile(models::chain_program(shape, 32), {}, diags);
    ASSERT_TRUE(r) << shape.model << ": " << diags.str();
    check(*builtin(shape.model).base, *r, shape.model, false);
  }
  for (const std::string& name : dspstone::kernel_names()) {
    core::CompileResult r = compile(dspstone::kernel(name));
    check(*c25().base, r, name, false);
  }
  for (std::uint64_t seed = 0; seed <= 50; ++seed) {
    const testgen::GeneratedModel m = testgen::generate_model(seed);
    util::DiagnosticSink diags;
    auto target = core::Record::retarget(m.hdl, core::RetargetOptions{},
                                         diags);
    ASSERT_TRUE(target) << m.name << ": " << diags.str();
    core::CompileOptions options;
    if (m.spill_slots > 0) {
      options.spill.scratch_base = m.spill_base;
      options.spill.scratch_slots = m.spill_slots;
    }
    for (std::uint64_t p = 0; p < 3; ++p) {
      const testgen::GeneratedProgram gp = testgen::generate_program(m, p);
      util::DiagnosticSink compile_diags;
      auto r = core::Compiler(*target).compile(gp.program, options,
                                               compile_diags);
      if (r) check(*target->base, *r, m.name, m.issue_slots > 1);
    }
  }
  // The filter decides most terms, and the sweep reached VLIW words.
  EXPECT_GT(skipped, undecided) << words << " words";
  EXPECT_GT(multi_issue_words, 0u);
}

/// "<model>/chain32" is the chain workload; any other name is a DSPStone
/// kernel (bound to tms320c25).
ir::Program pinned_program(const std::string& model,
                           const std::string& program) {
  if (program != "chain32") return dspstone::kernel(program);
  for (const models::ChainShape& s : models::kChainShapes)
    if (model == s.model) return models::chain_program(s, 32);
  throw std::invalid_argument("no chain shape for model " + model);
}

// Pinned encodings (tests/data/encode_fingerprints.txt): the chain32
// workload on every built-in model and the ten DSPStone kernels must keep
// compiling to the same bits and suppression counts, whatever the
// scheduler, the encoder or the BDD package do inside.
TEST(EncodeGolden, PinnedFingerprintsReproduce) {
  std::ifstream in(std::string(RECORD_TESTS_DIR) +
                   "/data/encode_fingerprints.txt");
  ASSERT_TRUE(in);
  int checked = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, counts;
    fields >> name >> counts;
    const std::vector<std::string> want{
        std::istream_iterator<std::string>(fields),
        std::istream_iterator<std::string>()};
    const std::size_t slash = name.find('/');
    ASSERT_NE(slash, std::string::npos) << line;
    const std::string model = name.substr(0, slash);
    ir::Program prog = pinned_program(model, name.substr(slash + 1));
    util::DiagnosticSink diags;
    auto r = core::Compiler(builtin(model))
                 .compile(prog, core::CompileOptions{}, diags);
    ASSERT_TRUE(r) << name << ": " << diags.str();
    EXPECT_EQ(hex_words(r->encoded.assembly), want) << name;
    EXPECT_EQ(std::to_string(r->encoded.stats.suppressed) + "/" +
                  std::to_string(r->encoded.stats.unsuppressible),
              counts)
        << name;
    ++checked;
  }
  EXPECT_EQ(checked, 16);
}

TEST(Asmout, ListingShowsAddressesAndComments) {
  ir::ProgramBuilder b("t");
  b.cell("a", "ram", 1).cell("c", "ram", 3);
  b.let("c", ir::e_var("a"));
  core::CompileResult r = compile(b.take());
  std::string listing = emit::listing(r.encoded.assembly);
  EXPECT_NE(listing.find("   0  "), std::string::npos);
  EXPECT_NE(listing.find("ACC :="), std::string::npos);
  std::string sum = summary(r.encoded.assembly);
  EXPECT_NE(sum.find("words"), std::string::npos);
}

TEST(Asmout, LabelsAppearInListing) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.label("loop");
  b.let("acc", ir::e_const(0));
  b.jump("loop");
  core::CompileResult r = compile(b.take());
  std::string listing = emit::listing(r.encoded.assembly);
  EXPECT_NE(listing.find("loop:"), std::string::npos);
}

}  // namespace
}  // namespace record::emit
