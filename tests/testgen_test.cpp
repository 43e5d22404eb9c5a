// The generative differential-testing layer: seeded model/program
// generation, the four-path oracle, minimization, repro files — plus the
// grammar/table edge cases the generator surfaces (zero-rule nonterminals,
// unreachable operations, duplicate-signature states) and deterministic
// replay of the generated models checked into tests/data/.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "burstab/tableparse.h"
#include "burstab/tables.h"
#include "core/compiler.h"
#include "core/record.h"
#include "grammar/grammar.h"
#include "ir/kernel_lang.h"
#include "testgen/modelgen.h"
#include "testgen/oracle.h"
#include "testgen/programgen.h"
#include "treeparse/burs.h"

namespace record::testgen {
namespace {

/// Oracle options for tests: shared per-process cache dir (removed by the
/// environment teardown below), model-fitted spill placement.
OracleOptions oracle_options(const GeneratedModel& m, bool service = false) {
  OracleOptions o;
  o.cache_dir = default_cache_dir();
  o.service = service;
  if (m.spill_slots > 0) {
    o.compile.spill.scratch_base = m.spill_base;
    o.compile.spill.scratch_slots = m.spill_slots;
  }
  return o;
}

class TestgenEnvironment : public ::testing::Environment {
 public:
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(default_cache_dir(), ec);
  }
};
const auto* const kEnv =
    ::testing::AddGlobalTestEnvironment(new TestgenEnvironment);

// --- model generator --------------------------------------------------------

TEST(ModelGen, DeterministicPerSeed) {
  GeneratedModel a = generate_model(7);
  GeneratedModel b = generate_model(7);
  EXPECT_EQ(a.hdl, b.hdl);
  EXPECT_EQ(a.knobs.str(), b.knobs.str());
  GeneratedModel c = generate_model(8);
  EXPECT_NE(a.hdl, c.hdl);
}

TEST(ModelGen, CorpusRetargetsAndIsDiverse) {
  int nonzero_imm_lsb = 0, buses = 0, shared = 0, addr_fields = 0, pcs = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    GeneratedModel m = generate_model(seed);
    util::DiagnosticSink diags;
    core::RetargetOptions opts;
    opts.build_tables = true;
    auto target = core::Record::retarget(m.hdl, opts, diags);
    ASSERT_TRUE(target) << "seed " << seed << " [" << m.knobs.str()
                        << "]:\n" << diags.str() << "\n" << m.hdl;
    EXPECT_GT(target->template_count(), 0u) << "seed " << seed;
    EXPECT_EQ(target->processor, m.name);
    EXPECT_EQ(target->base->instruction_width, m.instruction_width);
    if (m.knobs.imm_lsb > 0) ++nonzero_imm_lsb;
    if (m.knobs.use_bus) ++buses;
    if (m.knobs.shared_imm) ++shared;
    if (m.knobs.direct_addr_field) ++addr_fields;
    if (m.knobs.has_pc) ++pcs;
  }
  // The corpus must exercise the interesting knobs, not just defaults.
  EXPECT_GT(nonzero_imm_lsb, 5);
  EXPECT_GT(buses, 1);
  EXPECT_GT(shared, 1);
  EXPECT_GT(addr_fields, 1);
  EXPECT_GT(pcs, 1);
}

/// Every immediate-field reference in the extended base and the grammar must
/// stay inside the instruction word — the generative form of the PR-2
/// nonzero-lsb slice regression.
void expect_imm_bits_in_bounds(const rtl::RTNode& n, int iw,
                               const char* what) {
  if (n.kind == rtl::RTNode::Kind::Imm)
    for (int b : n.imm_bits) {
      EXPECT_GE(b, 0) << what;
      EXPECT_LT(b, iw) << what;
    }
  for (const rtl::RTNodePtr& c : n.children)
    expect_imm_bits_in_bounds(*c, iw, what);
}

void expect_pattern_imm_bits_in_bounds(const grammar::PatNode& p, int iw,
                                       const char* what) {
  if (p.kind == grammar::PatNode::Kind::Imm)
    for (int b : p.imm_bits) {
      EXPECT_GE(b, 0) << what;
      EXPECT_LT(b, iw) << what;
    }
  for (const grammar::PatNodePtr& c : p.children)
    expect_pattern_imm_bits_in_bounds(*c, iw, what);
}

TEST(ModelGen, ImmediateFieldBitsStayInsideInstructionWord) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    GeneratedModel m = generate_model(seed);
    util::DiagnosticSink diags;
    auto target = core::Record::retarget(m.hdl, core::RetargetOptions{},
                                         diags);
    ASSERT_TRUE(target) << diags.str();
    const int iw = target->base->instruction_width;
    for (const rtl::RTTemplate& t : target->base->templates) {
      expect_imm_bits_in_bounds(*t.value, iw, m.name.c_str());
      if (t.addr) expect_imm_bits_in_bounds(*t.addr, iw, m.name.c_str());
    }
    for (const grammar::Rule& r : target->tree_grammar.rules())
      expect_pattern_imm_bits_in_bounds(*r.pattern, iw, m.name.c_str());
  }
}

// --- program generator ------------------------------------------------------

TEST(ProgramGen, DeterministicValidatedAndKernelRoundTrips) {
  for (std::uint64_t seed : {0ull, 3ull, 11ull}) {
    GeneratedModel m = generate_model(seed);
    for (std::uint64_t p = 0; p < 3; ++p) {
      GeneratedProgram a = generate_program(m, p);
      GeneratedProgram b = generate_program(m, p);
      EXPECT_EQ(a.kernel, b.kernel);

      util::DiagnosticSink dv;
      EXPECT_TRUE(a.program.validate(dv)) << dv.str() << "\n" << a.kernel;

      util::DiagnosticSink dp;
      auto parsed = ir::parse_kernel(a.kernel, dp);
      ASSERT_TRUE(parsed) << dp.str() << "\n" << a.kernel;
      EXPECT_EQ(parsed->str(), a.program.str()) << a.kernel;
    }
  }
}

TEST(ProgramGen, ClonePreservesStructure) {
  GeneratedModel m = generate_model(5);
  GeneratedProgram gp = generate_program(m, 1);
  ir::Program copy = clone_program(gp.program);
  EXPECT_EQ(copy.str(), gp.program.str());
  EXPECT_EQ(copy.bindings().size(), gp.program.bindings().size());
  if (gp.program.stmts().size() > 1) {
    ir::Program shorter = clone_program(gp.program, 0);
    EXPECT_EQ(shorter.stmts().size(), gp.program.stmts().size() - 1);
  }
}

// --- the oracle -------------------------------------------------------------

TEST(Oracle, SmokeCorpusAllPathsAgree) {
  int compiled = 0, pairs = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    GeneratedModel m = generate_model(seed);
    for (std::uint64_t p = 0; p < 2; ++p) {
      GeneratedProgram gp = generate_program(m, p);
      // The service path spins a worker pool; exercise it on a subset.
      OracleOptions o = oracle_options(m, /*service=*/pairs % 4 == 0);
      OracleReport rep = check_pair(m.hdl, gp.program, o);
      EXPECT_TRUE(rep.agree)
          << "seed " << seed << " p" << p << " [" << m.knobs.str()
          << "]: " << rep.failure << "\n" << gp.kernel;
      if (rep.compiled) ++compiled;
      ++pairs;
    }
  }
  EXPECT_GT(compiled, pairs / 2) << "corpus too weak: almost nothing compiles";
}

TEST(Oracle, TableEngineReplaysSeeds0To50) {
  // Regression net for the table engine: replaying the generative corpus
  // pins TreeParser vs TableParser vs the warm TargetCache reload (fresh
  // tables over the reloaded grammar) as bit-identical across 51 machines.
  int compiled = 0;
  for (std::uint64_t seed = 0; seed <= 50; ++seed) {
    GeneratedModel m = generate_model(seed);
    GeneratedProgram gp = generate_program(m, 0);
    OracleOptions o = oracle_options(m, /*service=*/false);
    OracleReport rep = check_pair(m.hdl, gp.program, o);
    EXPECT_TRUE(rep.agree) << "seed " << seed << " [" << m.knobs.str()
                           << "]: " << rep.failure << "\n"
                           << gp.kernel;
    if (rep.compiled) ++compiled;
  }
  EXPECT_GT(compiled, 25) << "corpus too weak: almost nothing compiles";
}

TEST(Oracle, UncoveredProgramCountsAsAgreement) {
  // gen4's ALU (seed 4 draws + - ^ *) has no AND; a kernel using & must fail
  // identically on every path.
  GeneratedModel m = generate_model(4);
  bool has_and = false;
  for (hdl::OpKind op : m.program_ops)
    if (op == hdl::OpKind::And) has_and = true;
  ASSERT_FALSE(has_and) << "seed 4 drew AND; pick another seed";
  util::DiagnosticSink d;
  auto prog = ir::parse_kernel("kernel unc;\nbind a: R0;\nbind b: R1;\n"
                               "a = (a & b);\n",
                               d);
  ASSERT_TRUE(prog) << d.str();
  OracleReport rep = check_pair(m.hdl, *prog, oracle_options(m, true));
  EXPECT_TRUE(rep.agree) << rep.failure;
  EXPECT_FALSE(rep.compiled);
}

TEST(Oracle, RoundTripCleanOnBuiltinModel) {
  util::DiagnosticSink diags;
  auto target = core::Record::retarget_model("bass_boost",
                                             core::RetargetOptions{}, diags);
  ASSERT_TRUE(target) << diags.str();
  // crom addressing uses the nonzero-lsb ca field IW.w(10:6) — the encode
  // side of the PR-2 regression.
  util::DiagnosticSink dk;
  auto prog = ir::parse_kernel(
      "kernel rt;\nbind a: A;\ncell s0: sram[3];\ncell c0: crom[5];\n"
      "a = (a + w32(s0 * c0));\n",
      dk);
  ASSERT_TRUE(prog) << dk.str();
  util::DiagnosticSink dc;
  core::Compiler compiler(*target);
  auto res = compiler.compile(*prog, core::CompileOptions{}, dc);
  ASSERT_TRUE(res) << dc.str();
  EXPECT_EQ(roundtrip_issues(*res, *target->base), "");
}

// --- minimizer and repro files ----------------------------------------------

TEST(Minimizer, ShrinksToPredicateCore) {
  // Five statements, one of which contains the "failing" leaf m3 buried in a
  // deep expression; the minimizer must isolate that statement and shrink the
  // expression around the leaf.
  util::DiagnosticSink d;
  auto prog = ir::parse_kernel(
      "kernel shrink;\n"
      "bind r0: R0;\nbind r1: R1;\n"
      "cell m0: mem[0];\ncell m3: mem[3];\n"
      "r0 = (r1 + m0);\n"
      "r1 = ((r0 | 3) + (r1 & r0));\n"
      "r0 = ((r1 + ((m3 & r0) | r1)) + (m0 + 9));\n"
      "r1 = (m0 + 1);\n"
      "r0 = (r0 + r1);\n",
      d);
  ASSERT_TRUE(prog) << d.str();
  std::function<bool(const ir::Expr&)> uses_m3 = [&](const ir::Expr& e) {
    if (e.kind == ir::Expr::Kind::Var && e.var == "m3") return true;
    for (const ir::ExprPtr& a : e.args)
      if (uses_m3(*a)) return true;
    return false;
  };
  auto mentions_m3 = [&](const ir::Program& p) {
    for (const ir::Stmt& s : p.stmts())
      if (s.rhs && uses_m3(*s.rhs)) return true;
    return false;
  };
  ir::Program min = minimize_program(*prog, mentions_m3);
  EXPECT_TRUE(mentions_m3(min));
  ASSERT_EQ(min.stmts().size(), 1u);
  // Everything around the failing leaf must be gone: the statement shrinks
  // to a bare move of m3.
  const ir::Stmt& survivor = min.stmts().front();
  ASSERT_NE(survivor.rhs, nullptr);
  EXPECT_EQ(ir::to_string(*survivor.rhs), "m3") << kernel_text(min);
}

TEST(Minimizer, KeepsBranchTargetsValid) {
  util::DiagnosticSink d;
  auto prog = ir::parse_kernel(
      "kernel loopy;\nbind r0: R0;\n"
      "Ltop:\nr0 = (r0 + 1);\ngoto Ltop;\n",
      d);
  ASSERT_TRUE(prog) << d.str();
  // A predicate that always fails: minimization may only produce validating
  // programs, so the goto never dangles.
  ir::Program min = minimize_program(
      *prog, [](const ir::Program& p) {
        util::DiagnosticSink s;
        return p.validate(s);
      });
  util::DiagnosticSink v;
  EXPECT_TRUE(min.validate(v)) << v.str();
}

TEST(Minimizer, PreservesFailureClassWhileShrinking) {
  // Regression for the class-preserving shrink discipline: a program whose
  // FIRST statement triggers a cheap "structural" failure while a LATER
  // statement carries the rare "semantic" one. A naive any-failure predicate
  // collapses onto the structural statement and loses the semantic repro;
  // the class-preserving predicate (what fuzz_retarget builds from
  // OracleReport::clazz) must keep the semantic statement alive.
  util::DiagnosticSink d;
  auto prog = ir::parse_kernel(
      "kernel cls;\n"
      "bind r0: R0;\nbind r1: R1;\ncell m3: mem[3];\n"
      "r0 = (r0 + 1);\n"
      "r1 = (r1 + 2);\n"
      "r0 = (m3 | r1);\n",
      d);
  ASSERT_TRUE(prog) << d.str();
  std::function<bool(const ir::Expr&)> uses_m3 = [&](const ir::Expr& e) {
    if (e.kind == ir::Expr::Kind::Var && e.var == "m3") return true;
    for (const ir::ExprPtr& a : e.args)
      if (uses_m3(*a)) return true;
    return false;
  };
  // Synthetic oracle: any surviving statement "fails structurally"; the m3
  // statement additionally "fails semantically" (the rarer, more valuable
  // class). Mirrors real runs where shrunk candidates often fail for
  // unrelated structural reasons.
  auto classify = [&](const ir::Program& p) {
    for (const ir::Stmt& s : p.stmts())
      if (s.rhs && uses_m3(*s.rhs)) return FailureClass::kSemantic;
    return p.stmts().empty() ? FailureClass::kNone
                             : FailureClass::kStructural;
  };
  ASSERT_EQ(classify(*prog), FailureClass::kSemantic);

  // Naive predicate: collapses to one statement of either class — with the
  // back-to-front statement pass, the LAST shrinkable statement wins, but
  // nothing ties it to the semantic class.
  ir::Program naive = minimize_program(
      *prog, [&](const ir::Program& p) {
        return classify(p) != FailureClass::kNone;
      });
  ASSERT_EQ(naive.stmts().size(), 1u);

  // Class-preserving predicate: the repro must still fail SEMANTICALLY.
  ir::Program kept = minimize_program(
      *prog, [&](const ir::Program& p) {
        return classify(p) == FailureClass::kSemantic;
      });
  EXPECT_EQ(classify(kept), FailureClass::kSemantic) << kernel_text(kept);
  ASSERT_EQ(kept.stmts().size(), 1u);
  EXPECT_TRUE(uses_m3(*kept.stmts().front().rhs)) << kernel_text(kept);
}

TEST(FailureClasses, ClassifyByStablePrefix) {
  EXPECT_EQ(classify_failure(""), FailureClass::kNone);
  EXPECT_EQ(classify_failure("table engine: listing differs from reference"),
            FailureClass::kStructural);
  EXPECT_EQ(classify_failure("retarget failed: boom"),
            FailureClass::kStructural);
  EXPECT_EQ(classify_failure("round trip: word 3: bits do not satisfy..."),
            FailureClass::kDecode);
  EXPECT_EQ(classify_failure("semantic decode: simulator: word 1 ..."),
            FailureClass::kDecode);
  EXPECT_EQ(classify_failure("semantic: register 'R0' ..."),
            FailureClass::kSemantic);
  EXPECT_EQ(to_string(FailureClass::kSemantic), "semantic");
}

TEST(Repro, FileRoundTrip) {
  Repro r;
  r.model_seed = 18446744073709551615ull;  // > 2^53: must survive JSON
  r.program_seed = 2;
  r.model = "gen42";
  r.knobs = "regs=2x16";
  r.hdl = "PROCESSOR gen42;\n";
  r.kernel = "kernel k;\nbind a: R0;\na = (a + 1);\n";
  r.failure = "listing differs \"quoted\"";
  r.failure_class = "structural";
  r.spill_base = 16;
  r.spill_slots = 8;
  std::string path =
      (std::filesystem::temp_directory_path() / "record-testgen-repro.json")
          .string();
  ASSERT_TRUE(write_repro(path, r));
  auto back = load_repro(path);
  ASSERT_TRUE(back);
  EXPECT_EQ(back->model_seed, r.model_seed);
  EXPECT_EQ(back->program_seed, r.program_seed);
  EXPECT_EQ(back->model, r.model);
  EXPECT_EQ(back->hdl, r.hdl);
  EXPECT_EQ(back->kernel, r.kernel);
  EXPECT_EQ(back->failure, r.failure);
  EXPECT_EQ(back->failure_class, "structural");
  EXPECT_EQ(back->spill_base, 16);
  EXPECT_EQ(back->spill_slots, 8);
  std::remove(path.c_str());
  EXPECT_FALSE(load_repro(path));
}

// --- grammar/table edge cases the generator surfaces ------------------------

using grammar::kStart;
using grammar::NtId;
using grammar::pat_nonterm;
using grammar::pat_term;
using grammar::PatNodePtr;
using grammar::RuleKind;
using grammar::TermId;
using grammar::TreeGrammar;

/// Both engines must agree on `tree` (parse flag, root cost).
void expect_agreement(const TreeGrammar& g, const burstab::TargetTables& tb,
                      const treeparse::SubjectTree& tree) {
  treeparse::TreeParser interp(g);
  burstab::TableParser tabular(g, tb);
  treeparse::LabelResult a = interp.label(tree);
  treeparse::LabelResult b = tabular.label(tree);
  EXPECT_EQ(a.ok, b.ok) << tree.to_string(g);
  EXPECT_EQ(a.root_cost, b.root_cost) << tree.to_string(g);
}

TEST(GrammarEdge, ZeroRuleNonterminalIsInertInBothEngines) {
  // nt:DEAD has no rules at all, yet appears on an RHS — the exact shape a
  // generated model yields when a storage is reachable as an operand but
  // never writable. Table construction must not loop or crash, and trees
  // needing the dead nonterminal are unparseable in both engines.
  TreeGrammar g;
  NtId nt_a = g.intern_nonterminal("nt:A");
  NtId nt_dead = g.intern_nonterminal("nt:DEAD");
  TermId t_dest = g.intern_terminal("$dest:A");
  TermId t_reg = g.intern_terminal("$reg:A");
  TermId t_plus = g.intern_terminal("plus");
  {
    std::vector<PatNodePtr> kids;
    kids.push_back(pat_term(t_dest, {}));
    kids.push_back(pat_nonterm(nt_a));
    g.add_rule(kStart, pat_term(g.assign_terminal(), std::move(kids)), 0,
               RuleKind::Start);
  }
  {
    std::vector<PatNodePtr> kids;
    kids.push_back(pat_nonterm(nt_a));
    kids.push_back(pat_nonterm(nt_dead));  // never derivable
    g.add_rule(nt_a, pat_term(t_plus, std::move(kids)), 1, RuleKind::RT, 0);
  }
  g.add_rule(nt_a, pat_term(t_reg, {}), 0, RuleKind::Stop);

  burstab::TargetTables tables(g);
  // reg alone parses; plus(reg, reg) needs nt:DEAD on the right and must not.
  {
    treeparse::SubjectTree t;
    auto* dest = t.make(t_dest);
    auto* value = t.make(t_reg);
    t.set_root(t.make(g.assign_terminal(), {dest, value}));
    expect_agreement(g, tables, t);
    treeparse::TreeParser interp(g);
    EXPECT_TRUE(interp.label(t).ok);
  }
  {
    treeparse::SubjectTree t;
    auto* dest = t.make(t_dest);
    auto* l = t.make(t_reg);
    auto* r = t.make(t_reg);
    auto* plus = t.make(t_plus, {l, r});
    t.set_root(t.make(g.assign_terminal(), {dest, plus}));
    expect_agreement(g, tables, t);
    treeparse::TreeParser interp(g);
    EXPECT_FALSE(interp.label(t).ok);
  }
}

TEST(GrammarEdge, DuplicateSignatureStatesAreShared) {
  // Two nonterminals with byte-identical rule sets (symmetric registers, the
  // generated models' default) must collapse onto shared table states: the
  // state count may not grow with the duplication factor.
  auto build = [](int copies) {
    auto g = std::make_unique<TreeGrammar>();
    TermId t_dest = g->intern_terminal("$dest:A");
    TermId t_plus = g->intern_terminal("plus");
    NtId first = -1;
    for (int i = 0; i < copies; ++i) {
      NtId nt = g->intern_nonterminal("nt:R" + std::to_string(i));
      if (first < 0) first = nt;
      TermId t_reg = g->intern_terminal("$reg:R" + std::to_string(i));
      std::vector<PatNodePtr> kids;
      kids.push_back(pat_term(t_dest, {}));
      kids.push_back(pat_nonterm(nt));
      g->add_rule(kStart, pat_term(g->assign_terminal(), std::move(kids)), 0,
                  RuleKind::Start);
      std::vector<PatNodePtr> okids;
      okids.push_back(pat_nonterm(nt));
      okids.push_back(pat_nonterm(nt));
      g->add_rule(nt, pat_term(t_plus, std::move(okids)), 1, RuleKind::RT, i);
      g->add_rule(nt, pat_term(t_reg, {}), 0, RuleKind::Stop);
    }
    return g;
  };
  // The tables fill on demand: label every register pairing, one and two
  // plus levels deep, with both engines agreeing on each subject.
  auto fill = [](const TreeGrammar& g, const burstab::TargetTables& tables,
                 int copies) {
    auto reg = [&g](treeparse::SubjectTree& t, int i) {
      return t.make(g.find_terminal("$reg:R" + std::to_string(i)));
    };
    for (int i = 0; i < copies; ++i)
      for (int j = 0; j < copies; ++j)
        for (bool nested : {false, true}) {
          treeparse::SubjectTree t;
          auto* dest = t.make(g.find_terminal("$dest:A"));
          auto* l = nested ? t.make(g.find_terminal("plus"),
                                    {reg(t, i), reg(t, i)})
                           : reg(t, i);
          auto* plus = t.make(g.find_terminal("plus"), {l, reg(t, j)});
          t.set_root(t.make(g.assign_terminal(), {dest, plus}));
          expect_agreement(g, tables, t);
        }
  };
  auto g1 = build(1);
  auto g4 = build(4);
  burstab::TargetTables t1(*g1);
  burstab::TargetTables t4(*g4);
  fill(*g1, t1, 1);
  fill(*g4, t4, 4);
  EXPECT_GT(t1.stats().states, 0u);
  // Duplicated structure must not blow the state space combinatorially.
  EXPECT_LE(t4.stats().states, t1.stats().states * 4 + 4);
}

TEST(GrammarEdge, UnreachableOpFailsIdenticallyOnGeneratedModel) {
  // gen2's ALU draws + - | : the grammar contains no '*' terminal at the
  // datapath width, so a multiply kernel is rejected by BOTH engines with a
  // diagnostic, not a crash or a divergence.
  GeneratedModel m = generate_model(2);
  bool has_mul = false;
  for (hdl::OpKind op : m.program_ops)
    if (op == hdl::OpKind::Mul) has_mul = true;
  ASSERT_FALSE(has_mul);
  util::DiagnosticSink d;
  auto prog = ir::parse_kernel(
      "kernel mulk;\nbind a: R0;\nbind b: R1;\na = w8((a * b));\n", d);
  ASSERT_TRUE(prog) << d.str();
  OracleReport rep = check_pair(m.hdl, *prog, oracle_options(m));
  EXPECT_TRUE(rep.agree) << rep.failure;
  EXPECT_FALSE(rep.compiled);
}

// --- deterministic replay of checked-in generated models --------------------

/// Checks tests/data/gen<seed>.hdl against the generator, which the
/// checked-in dump pins: regeneration must be byte-identical (seed-replay
/// workflow; see tests/README.md). Then runs program `program` of the
/// model through the oracle.
void expect_fixture_passes(std::uint64_t seed, std::uint64_t program) {
  std::string path =
      std::string(RECORD_TESTS_DIR) + "/data/gen" + std::to_string(seed) +
      ".hdl";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing fixture " << path;
  std::ostringstream buf;
  buf << in.rdbuf();

  GeneratedModel m = generate_model(seed);
  EXPECT_EQ(buf.str(), m.hdl)
      << "generator drifted from tests/data fixture for seed " << seed
      << " — intentional? regenerate the dump and note it in the PR";

  GeneratedProgram gp = generate_program(m, program);
  OracleReport rep = check_pair(m.hdl, gp.program, oracle_options(m));
  EXPECT_TRUE(rep.agree) << rep.failure << "\n" << gp.kernel;
}

class CheckedInModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CheckedInModel, MatchesGeneratorAndPassesOracle) {
  expect_fixture_passes(GetParam(), 0);
}

// Seeds 9, 12 and 53 pin the multi-issue generator across its shape space:
// 2 slots + mode-switched ALU + a branch delay slot, 3 slots + mode, and a
// plain 4-slot machine with a PC. Seeds 0, 2 and 4 predate multi-issue
// (0 and 4 now draw extra slots; 2 stays single-issue, witnessing that the
// second knob stream leaves classic models byte-identical).
INSTANTIATE_TEST_SUITE_P(Fixtures, CheckedInModel,
                         ::testing::Values(0ull, 2ull, 4ull, 9ull, 12ull,
                                           53ull));

// Seed 178 program 1 (2 slots + mode) and seed 1737 program 2 (3 slots +
// mode) are one loop each, `Ltop: ... goto Ltop`. Their bodies end with a
// mode set, and compaction used to carry that mode into the packed words
// at Ltop as if the loop were entered only from above: every iteration
// after the first ran them under the wrong mode.
TEST(CompactionRegression, ModeStateAtLoopHeadSeed178) {
  expect_fixture_passes(178, 1);
}

TEST(CompactionRegression, ModeStateAtLoopHeadSeed1737) {
  expect_fixture_passes(1737, 2);
}

TEST(MultiIssuePins, PinnedSeedsCoverTheKnobSpace) {
  GeneratedModel m9 = generate_model(9);
  EXPECT_EQ(m9.knobs.issue_slots, 2);
  EXPECT_TRUE(m9.knobs.mode_alu);
  EXPECT_EQ(m9.knobs.branch_delay, 1);
  EXPECT_EQ(m9.branch_delay, 1);
  GeneratedModel m12 = generate_model(12);
  EXPECT_EQ(m12.knobs.issue_slots, 3);
  EXPECT_TRUE(m12.knobs.mode_alu);
  EXPECT_EQ(m12.knobs.branch_delay, 0);
  GeneratedModel m53 = generate_model(53);
  EXPECT_EQ(m53.knobs.issue_slots, 4);
  EXPECT_FALSE(m53.knobs.mode_alu);
  EXPECT_TRUE(m53.knobs.has_pc);
  // And the classic witness: seed 2 drew no extra slots, so its HDL must
  // not even mention the slot machinery.
  GeneratedModel m2 = generate_model(2);
  EXPECT_EQ(m2.knobs.issue_slots, 1);
  EXPECT_EQ(m2.hdl.find("salu"), std::string::npos);
}

}  // namespace
}  // namespace record::testgen
