#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bdd/bdd.h"

namespace record::bdd {
namespace {

class BddTest : public ::testing::Test {
 protected:
  BddManager mgr;
  int a = mgr.new_var("a");
  int b = mgr.new_var("b");
  int c = mgr.new_var("c");
};

TEST_F(BddTest, ConstantsAreFixedPoints) {
  EXPECT_EQ(mgr.land(kTrue, kTrue), kTrue);
  EXPECT_EQ(mgr.land(kTrue, kFalse), kFalse);
  EXPECT_EQ(mgr.lor(kFalse, kFalse), kFalse);
  EXPECT_EQ(mgr.lnot(kTrue), kFalse);
  EXPECT_EQ(mgr.lnot(kFalse), kTrue);
}

TEST_F(BddTest, VariablesAreCanonical) {
  EXPECT_EQ(mgr.var(a), mgr.var(a));
  EXPECT_NE(mgr.var(a), mgr.var(b));
  EXPECT_EQ(mgr.lnot(mgr.lnot(mgr.var(a))), mgr.var(a));
}

TEST_F(BddTest, AndOrDuality) {
  Ref f = mgr.land(mgr.var(a), mgr.var(b));
  Ref g = mgr.lnot(mgr.lor(mgr.lnot(mgr.var(a)), mgr.lnot(mgr.var(b))));
  EXPECT_EQ(f, g);  // De Morgan, by canonicity
}

TEST_F(BddTest, XorTruthTable) {
  Ref x = mgr.lxor(mgr.var(a), mgr.var(b));
  EXPECT_FALSE(mgr.eval(x, {{a, false}, {b, false}}));
  EXPECT_TRUE(mgr.eval(x, {{a, true}, {b, false}}));
  EXPECT_TRUE(mgr.eval(x, {{a, false}, {b, true}}));
  EXPECT_FALSE(mgr.eval(x, {{a, true}, {b, true}}));
}

TEST_F(BddTest, IteIsShannonExpansion) {
  Ref f = mgr.ite(mgr.var(a), mgr.var(b), mgr.var(c));
  EXPECT_TRUE(mgr.eval(f, {{a, true}, {b, true}}));
  EXPECT_FALSE(mgr.eval(f, {{a, true}, {b, false}, {c, true}}));
  EXPECT_TRUE(mgr.eval(f, {{a, false}, {c, true}}));
}

TEST_F(BddTest, ContradictionCollapsesToFalse) {
  Ref f = mgr.land(mgr.var(a), mgr.lnot(mgr.var(a)));
  EXPECT_EQ(f, kFalse);
  EXPECT_FALSE(mgr.is_sat(f));
}

TEST_F(BddTest, TautologyCollapsesToTrue) {
  Ref f = mgr.lor(mgr.var(a), mgr.lnot(mgr.var(a)));
  EXPECT_EQ(f, kTrue);
  EXPECT_TRUE(mgr.is_tautology(f));
}

TEST_F(BddTest, RestrictFixesVariable) {
  Ref f = mgr.land(mgr.var(a), mgr.var(b));
  EXPECT_EQ(mgr.restrict(f, a, true), mgr.var(b));
  EXPECT_EQ(mgr.restrict(f, a, false), kFalse);
}

TEST_F(BddTest, RestrictOnAbsentVariableIsIdentity) {
  Ref f = mgr.land(mgr.var(a), mgr.var(b));
  EXPECT_EQ(mgr.restrict(f, c, true), f);
}

TEST_F(BddTest, ComposeSubstitutesFunction) {
  // f = a & c, compose a <- (b | c): f' = (b | c) & c = c.
  Ref f = mgr.land(mgr.var(a), mgr.var(c));
  Ref g = mgr.lor(mgr.var(b), mgr.var(c));
  EXPECT_EQ(mgr.compose(f, a, g), mgr.var(c));
}

TEST_F(BddTest, ExistsQuantifiesOut) {
  Ref f = mgr.land(mgr.var(a), mgr.var(b));
  EXPECT_EQ(mgr.exists(f, a), mgr.var(b));
  Ref g = mgr.lxor(mgr.var(a), mgr.var(b));
  EXPECT_EQ(mgr.exists(g, a), kTrue);
}

TEST_F(BddTest, ImpliesAndDisjoint) {
  Ref ab = mgr.land(mgr.var(a), mgr.var(b));
  EXPECT_TRUE(mgr.implies(ab, mgr.var(a)));
  EXPECT_FALSE(mgr.implies(mgr.var(a), ab));
  EXPECT_TRUE(mgr.disjoint(mgr.var(a), mgr.lnot(mgr.var(a))));
  EXPECT_FALSE(mgr.disjoint(mgr.var(a), mgr.var(b)));
}

TEST_F(BddTest, ConstrainSkipsTermsThatContradict) {
  // !a contradicts a; b and c are taken in order.
  Ref f = mgr.var(a);
  std::size_t taken = 0;
  Ref g = mgr.constrain(
      f, {mgr.var(b), mgr.nvar(a), mgr.lor(mgr.var(c), mgr.nvar(b))}, &taken);
  EXPECT_EQ(taken, 2u);
  EXPECT_EQ(g, mgr.land(mgr.land(mgr.var(a), mgr.var(b)), mgr.var(c)));
  // Nothing can be conjoined into FALSE.
  taken = 0;
  EXPECT_EQ(mgr.constrain(kFalse, {kTrue, mgr.var(a)}, &taken), kFalse);
  EXPECT_EQ(taken, 0u);
}

TEST_F(BddTest, AnySatReturnsModel) {
  Ref f = mgr.land(mgr.var(a), mgr.lnot(mgr.var(b)));
  auto model = mgr.any_sat(f);
  ASSERT_TRUE(model.has_value());
  EXPECT_TRUE(mgr.eval(f, *model));
  EXPECT_FALSE(mgr.any_sat(kFalse).has_value());
}

TEST_F(BddTest, SatCountMatchesTruthTable) {
  // a & b over 3 vars: 2 satisfying assignments.
  EXPECT_EQ(mgr.sat_count(mgr.land(mgr.var(a), mgr.var(b)), 3), 2u);
  // a | b over 3 vars: 6.
  EXPECT_EQ(mgr.sat_count(mgr.lor(mgr.var(a), mgr.var(b)), 3), 6u);
  EXPECT_EQ(mgr.sat_count(kTrue, 3), 8u);
  EXPECT_EQ(mgr.sat_count(kFalse, 3), 0u);
}

TEST_F(BddTest, SupportListsDependencies) {
  Ref f = mgr.land(mgr.var(a), mgr.var(c));
  auto support = mgr.support(f);
  ASSERT_EQ(support.size(), 2u);
  EXPECT_EQ(support[0], a);
  EXPECT_EQ(support[1], c);
  EXPECT_TRUE(mgr.support(kTrue).empty());
}

TEST_F(BddTest, RedundantTestsAreReduced) {
  // ite(a, b, b) must not create a node on a.
  Ref f = mgr.ite(mgr.var(a), mgr.var(b), mgr.var(b));
  EXPECT_EQ(f, mgr.var(b));
}

TEST_F(BddTest, ToStringAndSopStable) {
  Ref f = mgr.land(mgr.var(a), mgr.var(b));
  EXPECT_EQ(mgr.to_string(kFalse), "0");
  EXPECT_EQ(mgr.to_string(kTrue), "1");
  EXPECT_EQ(mgr.to_sop(f), "a&b");
  EXPECT_EQ(mgr.to_sop(kTrue), "1");
  EXPECT_EQ(mgr.to_sop(kFalse), "0");
}

TEST_F(BddTest, KeepsVariableNamesForPrinting) {
  EXPECT_EQ(mgr.var_count(), 3);
  EXPECT_EQ(mgr.var_name(b), "b");
  EXPECT_EQ(mgr.to_sop(mgr.nvar(b)), "!b");
}

// The computed table is lossy: results that fell out of it are recomputed
// from the unique table. Overflowing it and then rebuilding the same
// functions in another operation order (reversed build order, swapped
// operands) must give identical Refs and create no node.
TEST(BddComputedTable, OverflowKeepsRefsCanonical) {
  BddManager mgr;
  constexpr int kVars = 24;
  for (int v = 0; v < kVars; ++v) mgr.new_var("x" + std::to_string(v));
  constexpr int kFunctions = 4000;
  auto pick = [](int k, int j) {
    std::uint32_t x = static_cast<std::uint32_t>(k) * 2654435761u +
                      static_cast<std::uint32_t>(j) * 40503u;
    return static_cast<int>((x >> 11) % kVars);
  };

  std::vector<Ref> built(kFunctions);
  for (int k = 0; k < kFunctions; ++k) {
    Ref f = kFalse;
    for (int j = 0; j < 6; ++j) {
      Ref term = mgr.land(mgr.var(pick(k, j)), mgr.nvar(pick(k + 1, j + 2)));
      f = (k + j) % 3 ? mgr.lxor(f, term) : mgr.lor(f, term);
    }
    built[static_cast<std::size_t>(k)] = f;
  }
  const std::size_t nodes = mgr.node_count();
  // Every node came from a distinct ite result, so the table was overrun.
  ASSERT_GT(nodes, std::size_t{1} << BddManager::kComputedTableBits);

  for (int k = kFunctions - 1; k >= 0; --k) {
    Ref f = kFalse;
    for (int j = 0; j < 6; ++j) {
      Ref term = mgr.land(mgr.nvar(pick(k + 1, j + 2)), mgr.var(pick(k, j)));
      f = (k + j) % 3 ? mgr.lxor(f, term) : mgr.lor(term, f);
    }
    EXPECT_EQ(f, built[static_cast<std::size_t>(k)]) << "function " << k;
  }
  EXPECT_EQ(mgr.node_count(), nodes);
}

// support() walks only the nodes reachable from its argument; in a manager
// holding many unrelated nodes it must still match the semantic definition
// (v is in the support iff the two cofactors on v differ).
TEST(BddComputedTable, SupportMatchesCofactorDefinition) {
  BddManager mgr;
  constexpr int kVars = 12;
  for (int v = 0; v < kVars; ++v) mgr.new_var("v" + std::to_string(v));
  Ref f = kFalse;
  for (int i = 0; i < 200; ++i) {
    f = mgr.lxor(f, mgr.land(mgr.var(i % kVars), mgr.var((i * 5 + 1) % kVars)));
    if (i % 17 != 0) continue;
    std::vector<int> expect;
    for (int v = 0; v < kVars; ++v)
      if (mgr.restrict(f, v, true) != mgr.restrict(f, v, false))
        expect.push_back(v);
    EXPECT_EQ(mgr.support(f), expect) << "step " << i;
  }
  Ref small = mgr.lor(mgr.land(mgr.var(3), mgr.var(7)), mgr.nvar(10));
  EXPECT_EQ(mgr.support(small), (std::vector<int>{3, 7, 10}));
}

// Property sweep: for every 3-variable function built from a random-ish
// formula template, BDD evaluation equals direct formula evaluation on all
// 8 assignments.
class BddSemanticsProperty : public ::testing::TestWithParam<int> {};

TEST_P(BddSemanticsProperty, MatchesTruthTableOnAllAssignments) {
  int seed = GetParam();
  BddManager mgr;
  int v0 = mgr.new_var("x0");
  int v1 = mgr.new_var("x1");
  int v2 = mgr.new_var("x2");

  // Deterministic formula family keyed by seed: each 2-bit field picks a
  // connective, each term a variable.
  auto term = [&](int k) { return mgr.var(k % 3 == 0 ? v0 : k % 3 == 1 ? v1 : v2); };
  Ref f = term(seed);
  for (int i = 0; i < 4; ++i) {
    int op = (seed >> (2 * i)) & 3;
    Ref t = term(seed + i + 1);
    if (((seed >> (8 + i)) & 1) != 0) t = mgr.lnot(t);
    switch (op) {
      case 0: f = mgr.land(f, t); break;
      case 1: f = mgr.lor(f, t); break;
      case 2: f = mgr.lxor(f, t); break;
      case 3: f = mgr.ite(f, t, mgr.lnot(t)); break;
    }
  }

  // Reference evaluation: recompute the same formula on booleans.
  auto ref_term = [&](int k, bool x0, bool x1, bool x2) {
    return k % 3 == 0 ? x0 : k % 3 == 1 ? x1 : x2;
  };
  for (int assignment = 0; assignment < 8; ++assignment) {
    bool x0 = assignment & 1, x1 = assignment & 2, x2 = assignment & 4;
    bool expect = ref_term(seed, x0, x1, x2);
    for (int i = 0; i < 4; ++i) {
      int op = (seed >> (2 * i)) & 3;
      bool t = ref_term(seed + i + 1, x0, x1, x2);
      if (((seed >> (8 + i)) & 1) != 0) t = !t;
      switch (op) {
        case 0: expect = expect && t; break;
        case 1: expect = expect || t; break;
        case 2: expect = expect != t; break;
        case 3: expect = expect ? t : !t; break;
      }
    }
    EXPECT_EQ(mgr.eval(f, {{v0, x0}, {v1, x1}, {v2, x2}}), expect)
        << "seed=" << seed << " assignment=" << assignment;
  }
}

INSTANTIATE_TEST_SUITE_P(FormulaFamily, BddSemanticsProperty,
                         ::testing::Range(0, 64));

TEST(BitVec, ConstantRoundTrip) {
  BitVec v = BitVec::constant(0b1011, 4);
  EXPECT_TRUE(v.is_constant());
  EXPECT_EQ(v.constant_value(), 0b1011u);
  EXPECT_EQ(v.width(), 4);
}

TEST(BitVec, SliceAndConcat) {
  BitVec v = BitVec::constant(0xA5, 8);
  BitVec hi = v.slice(7, 4);
  BitVec lo = v.slice(3, 0);
  EXPECT_EQ(hi.constant_value(), 0xAu);
  EXPECT_EQ(lo.constant_value(), 0x5u);
  BitVec back = BitVec::concat(hi, lo);
  EXPECT_EQ(back.constant_value(), 0xA5u);
}

TEST(BitVec, EqualsConstBuildsCondition) {
  BddManager mgr;
  int b0 = mgr.new_var("b0");
  int b1 = mgr.new_var("b1");
  BitVec v(std::vector<Ref>{mgr.var(b0), mgr.var(b1)});
  Ref eq2 = v.equals_const(mgr, 2);  // b1=1, b0=0
  EXPECT_TRUE(mgr.eval(eq2, {{b0, false}, {b1, true}}));
  EXPECT_FALSE(mgr.eval(eq2, {{b0, true}, {b1, true}}));
}

TEST(BitVec, EqualsConstTruncatesValue) {
  BddManager mgr;
  BitVec v = BitVec::constant(1, 1);
  // value 3 truncated to width 1 -> bit0 must be 1.
  EXPECT_EQ(v.equals_const(mgr, 3), kTrue);
}

TEST(BitVec, EqualsSymbolic) {
  BddManager mgr;
  int x = mgr.new_var("x");
  BitVec v1(std::vector<Ref>{mgr.var(x)});
  BitVec v2(std::vector<Ref>{mgr.var(x)});
  EXPECT_EQ(v1.equals(mgr, v2), kTrue);
  BitVec v3(std::vector<Ref>{mgr.lnot(mgr.var(x))});
  EXPECT_EQ(v1.equals(mgr, v3), kFalse);
}

}  // namespace
}  // namespace record::bdd
