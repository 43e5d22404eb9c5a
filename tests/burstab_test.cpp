// Differential validation of the table-driven BURS engine: on every grammar
// and subject tree, burstab::TableParser must produce the exact LabelResult
// (costs AND winning rules) of the dynamic-programming treeparse::TreeParser,
// hence identical optimal derivations and RT sequences.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "burstab/cache.h"
#include "burstab/serialize.h"
#include "burstab/tableparse.h"
#include "burstab/tables.h"
#include "core/compiler.h"
#include "core/record.h"
#include "ir/builder.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "select/selector.h"
#include "testgen/modelgen.h"
#include "treeparse/burs.h"
#include "util/failpoint.h"

namespace record::burstab {
namespace {

using grammar::kStart;
using grammar::NtId;
using grammar::pat_const_leaf;
using grammar::pat_imm;
using grammar::pat_nonterm;
using grammar::pat_term;
using grammar::PatNode;
using grammar::PatNodePtr;
using grammar::RuleKind;
using grammar::TermId;
using grammar::TreeGrammar;
using treeparse::Derivation;
using treeparse::LabelResult;
using treeparse::SubjectNode;
using treeparse::SubjectTree;
using treeparse::TreeParser;

// --- differential harness ---------------------------------------------------

std::string derivation_string(const Derivation& d) {
  std::string s = "r" + std::to_string(d.rule);
  for (const treeparse::ImmBinding& b : d.imms)
    s += "#" + std::to_string(b.value);
  s += "(";
  for (const Derivation* c : d.children) s += derivation_string(*c) + ",";
  s += ")";
  return s;
}

/// Full equivalence check of both engines on one tree. Returns whether the
/// tree parses (for corpus-coverage assertions).
bool expect_engines_agree(const TreeGrammar& g, const TargetTables& tables,
                          const SubjectTree& tree, const char* what) {
  TreeParser interp(g);
  TableParser tabular(g, tables);
  LabelResult a = interp.label(tree);
  LabelResult b = tabular.label(tree);
  EXPECT_EQ(a.ok, b.ok) << what << ": " << tree.to_string(g);
  EXPECT_EQ(a.root_cost, b.root_cost) << what << ": " << tree.to_string(g);
  EXPECT_EQ(a.flat.size(), b.flat.size());
  if (a.flat.size() != b.flat.size()) return false;
  for (std::size_t id = 0; id < a.node_count(); ++id) {
    for (std::size_t nt = 0; nt < static_cast<std::size_t>(a.nt_count);
         ++nt) {
      EXPECT_EQ(a.at(id, nt).cost, b.at(id, nt).cost)
          << what << ": node " << id << " nt " << nt << " of "
          << tree.to_string(g);
      EXPECT_EQ(a.at(id, nt).rule, b.at(id, nt).rule)
          << what << ": node " << id << " nt " << nt << " of "
          << tree.to_string(g);
    }
  }
  if (a.ok && b.ok) {
    treeparse::DerivationArena arena;
    Derivation* da = interp.reduce(tree, a, arena);
    Derivation* db = tabular.reduce(tree, b, arena);
    EXPECT_NE(da, nullptr);
    EXPECT_NE(db, nullptr);
    if (da && db)
      EXPECT_EQ(derivation_string(*da), derivation_string(*db))
          << what << ": " << tree.to_string(g);
  }
  return a.ok;
}

/// Exact LabelResult equality: every node's cost and winning rule.
bool same_labels(const LabelResult& a, const LabelResult& b) {
  if (a.ok != b.ok || a.root_cost != b.root_cost || a.nt_count != b.nt_count ||
      a.flat.size() != b.flat.size())
    return false;
  for (std::size_t i = 0; i < a.flat.size(); ++i)
    if (a.flat[i].cost != b.flat[i].cost || a.flat[i].rule != b.flat[i].rule)
      return false;
  return true;
}

/// Random subject trees over the grammar's terminal alphabet: adversarial
/// input, mostly unparseable — both engines must still agree everywhere.
class RandomTreeGen {
 public:
  RandomTreeGen(const TreeGrammar& g, std::uint32_t seed)
      : g_(g), rng_(seed) {
    for (const grammar::Rule& r : g.rules()) collect(*r.pattern);
    for (auto& [t, arities] : arity_of_) {
      (void)t;
      (void)arities;
    }
    if (const_values_.empty()) const_values_ = {0, 1};
    const_values_.push_back(3);
    const_values_.push_back(-5);
    const_values_.push_back(1 << 20);  // fits few immediate fields
  }

  SubjectTree make_tree(int max_depth) {
    SubjectTree t;
    t.set_root(subtree(t, max_depth));
    return t;
  }

  /// ASSIGN($dest, value) shaped like real selection subjects.
  SubjectTree make_assign(int max_depth) {
    SubjectTree t;
    SubjectNode* value = subtree(t, max_depth);
    SubjectNode* dest =
        dest_terms_.empty()
            ? t.make(random_term())
            : t.make(dest_terms_[rng_() % dest_terms_.size()]);
    t.set_root(t.make(g_.assign_terminal(), {dest, value}));
    return t;
  }

 private:
  void collect(const PatNode& p) {
    switch (p.kind) {
      case PatNode::Kind::Term: {
        auto& arities = arity_of_[p.term];
        int k = static_cast<int>(p.children.size());
        if (std::find(arities.begin(), arities.end(), k) == arities.end())
          arities.push_back(k);
        if (g_.terminal_name(p.term).rfind("$dest:", 0) == 0)
          if (std::find(dest_terms_.begin(), dest_terms_.end(), p.term) ==
              dest_terms_.end())
            dest_terms_.push_back(p.term);
        for (const PatNodePtr& c : p.children) collect(*c);
        terms_.push_back(p.term);
        return;
      }
      case PatNode::Kind::Imm:
        const_values_.push_back((std::int64_t{1} << (p.width - 1)) - 1);
        const_values_.push_back(std::int64_t{1} << p.width);  // just too big
        return;
      case PatNode::Kind::Const:
        const_values_.push_back(p.value);
        return;
      case PatNode::Kind::NonTerm:
        return;
    }
  }

  TermId random_term() { return terms_[rng_() % terms_.size()]; }

  SubjectNode* subtree(SubjectTree& t, int depth) {
    if (depth <= 0 || rng_() % 4 == 0)
      return t.make_const(g_.const_terminal(),
                          const_values_[rng_() % const_values_.size()]);
    TermId term = random_term();
    const std::vector<int>& arities = arity_of_[term];
    int k = arities[rng_() % arities.size()];
    if (k == 0) return t.make(term);
    std::vector<SubjectNode*> kids;
    kids.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) kids.push_back(subtree(t, depth - 1));
    return t.make(term, kids);
  }

  const TreeGrammar& g_;
  std::mt19937 rng_;
  std::unordered_map<TermId, std::vector<int>> arity_of_;
  std::vector<TermId> terms_;
  std::vector<TermId> dest_terms_;
  std::vector<std::int64_t> const_values_;
};

// --- fixture grammars -------------------------------------------------------

/// The treeparse_test fixture grammar (constraint-free).
struct PlainFixture {
  TreeGrammar g;
  TermId t_dest_a, t_reg_a, t_reg_b, t_plus, t_load;
  NtId nt_a, nt_b;

  PlainFixture() {
    nt_a = g.intern_nonterminal("nt:A");
    nt_b = g.intern_nonterminal("nt:B");
    t_dest_a = g.intern_terminal("$dest:A");
    t_reg_a = g.intern_terminal("$reg:A");
    t_reg_b = g.intern_terminal("$reg:B");
    t_plus = g.intern_terminal("plus");
    t_load = g.intern_terminal("load");
    {
      std::vector<PatNodePtr> kids;
      kids.push_back(pat_term(t_dest_a, {}));
      kids.push_back(pat_nonterm(nt_a));
      g.add_rule(kStart, pat_term(g.assign_terminal(), std::move(kids)), 0,
                 RuleKind::Start);
    }
    {
      std::vector<PatNodePtr> kids;
      kids.push_back(pat_nonterm(nt_a));
      kids.push_back(pat_nonterm(nt_b));
      g.add_rule(nt_a, pat_term(t_plus, std::move(kids)), 1, RuleKind::RT, 0);
    }
    {
      // Multi-level pattern: plus(nt:A, load(#imm4)) — exercises interior
      // subpattern states.
      std::vector<PatNodePtr> inner;
      inner.push_back(pat_imm({0, 1, 2, 3}));
      std::vector<PatNodePtr> kids;
      kids.push_back(pat_nonterm(nt_a));
      kids.push_back(pat_term(t_load, std::move(inner)));
      g.add_rule(nt_a, pat_term(t_plus, std::move(kids)), 1, RuleKind::RT, 4);
    }
    {
      std::vector<PatNodePtr> kids;
      kids.push_back(pat_nonterm(nt_b));
      g.add_rule(nt_a, pat_term(t_load, std::move(kids)), 1, RuleKind::RT, 1);
    }
    g.add_rule(nt_a, pat_term(t_reg_a, {}), 0, RuleKind::Stop);
    g.add_rule(nt_b, pat_imm({0, 1, 2, 3}), 1, RuleKind::RT, 2);
    g.add_rule(nt_b, pat_nonterm(nt_a), 1, RuleKind::RT, 3);
    g.add_rule(nt_b, pat_const_leaf(0), 0, RuleKind::RT, 5);  // clear
    g.add_rule(nt_b, pat_term(t_reg_b, {}), 0, RuleKind::Stop);
  }
};

/// Adds side-constrained rules: an x+x shifter pattern (structural equality
/// of both operands) and a paired-immediate operator (both draw field 0-3).
struct ConstrainedFixture : PlainFixture {
  TermId t_shl, t_addi;

  ConstrainedFixture() {
    t_shl = g.intern_terminal("shl");
    t_addi = g.intern_terminal("addi");
    {
      // nt:A -> shl(nt:A, nt:A): both leaves must bind the same subtree.
      std::vector<PatNodePtr> kids;
      kids.push_back(pat_nonterm(nt_a));
      kids.push_back(pat_nonterm(nt_a));
      g.add_rule(nt_a, pat_term(t_shl, std::move(kids)), 1, RuleKind::RT, 6);
    }
    {
      // nt:A -> addi(#imm4, #imm4) with one shared field: matches only when
      // both constants are equal.
      std::vector<PatNodePtr> kids;
      kids.push_back(pat_imm({0, 1, 2, 3}));
      kids.push_back(pat_imm({0, 1, 2, 3}));
      g.add_rule(nt_a, pat_term(t_addi, std::move(kids)), 1, RuleKind::RT, 7);
    }
    {
      // Unconstrained sibling on the same (constrained) operator: fallback
      // nodes must still consider table rules in original order.
      std::vector<PatNodePtr> kids;
      kids.push_back(pat_nonterm(nt_a));
      kids.push_back(pat_nonterm(nt_b));
      g.add_rule(nt_a, pat_term(t_shl, std::move(kids)), 2, RuleKind::RT, 8);
    }
  }
};

TEST(BurstabDifferential, PlainFixtureRandomTrees) {
  PlainFixture f;
  TargetTables tables(f.g);
  RandomTreeGen gen(f.g, 1234);
  int parsed = 0;
  for (int i = 0; i < 300; ++i) {
    SubjectTree t = gen.make_assign(1 + i % 5);
    if (expect_engines_agree(f.g, tables, t, "plain/assign")) ++parsed;
  }
  for (int i = 0; i < 200; ++i) {
    SubjectTree t = gen.make_tree(1 + i % 4);
    expect_engines_agree(f.g, tables, t, "plain/random");
  }
  EXPECT_GT(parsed, 20) << "corpus too weak to exercise the tables";
}

TEST(BurstabDifferential, ConstrainedFixtureRandomTrees) {
  ConstrainedFixture f;
  TargetTables tables(f.g);
  EXPECT_TRUE(tables.terminal_has_constrained(f.t_shl));
  EXPECT_TRUE(tables.terminal_has_constrained(f.t_addi));
  EXPECT_FALSE(tables.terminal_has_constrained(f.t_plus));
  RandomTreeGen gen(f.g, 99);
  int parsed = 0;
  for (int i = 0; i < 400; ++i) {
    SubjectTree t = gen.make_assign(1 + i % 5);
    if (expect_engines_agree(f.g, tables, t, "constrained/assign")) ++parsed;
  }
  EXPECT_GT(parsed, 20);
}

TEST(BurstabDifferential, SharedImmediateFieldSemantics) {
  ConstrainedFixture f;
  TargetTables tables(f.g);
  // addi(5, 5) parses (same constant in the shared field), addi(5, 6) must
  // not match the paired-immediate rule.
  for (auto [v1, v2] : {std::pair<int, int>{5, 5}, {5, 6}}) {
    SubjectTree t;
    SubjectNode* dest = t.make(f.t_dest_a);
    SubjectNode* a = t.make_const(f.g.const_terminal(), v1);
    SubjectNode* b = t.make_const(f.g.const_terminal(), v2);
    SubjectNode* addi = t.make(f.t_addi, {a, b});
    t.set_root(t.make(f.g.assign_terminal(), {dest, addi}));
    expect_engines_agree(f.g, tables, t, "addi");
  }
}

TEST(BurstabDifferential, StructuralEqualityBinding) {
  ConstrainedFixture f;
  TargetTables tables(f.g);
  // shl(reg_a, reg_a) binds; shl over differing subtrees must use the
  // more expensive unconstrained sibling rule. Both engines agree either
  // way; check the parse is exercised.
  SubjectTree t;
  SubjectNode* dest = t.make(f.t_dest_a);
  SubjectNode* l = t.make(f.t_reg_a);
  SubjectNode* r = t.make(f.t_reg_a);
  SubjectNode* shl = t.make(f.t_shl, {l, r});
  t.set_root(t.make(f.g.assign_terminal(), {dest, shl}));
  EXPECT_TRUE(expect_engines_agree(f.g, tables, t, "shl-xx"));
  TreeParser interp(f.g);
  LabelResult lr = interp.label(t);
  ASSERT_TRUE(lr.ok);
  EXPECT_EQ(lr.root_cost, 1);  // x+x rule, not the cost-2 sibling
}

// --- built-in models --------------------------------------------------------

class BurstabModel : public ::testing::TestWithParam<const char*> {};

TEST_P(BurstabModel, DifferentialCorpus) {
  util::DiagnosticSink diags;
  core::RetargetOptions options;
  auto target = core::Record::retarget_model(GetParam(), options, diags);
  ASSERT_TRUE(target) << diags.str();
  ASSERT_NE(target->tables, nullptr);

  RandomTreeGen gen(target->tree_grammar, 4242);
  int parsed = 0;
  for (int i = 0; i < 120; ++i) {
    SubjectTree t = gen.make_assign(1 + i % 4);
    if (expect_engines_agree(target->tree_grammar, *target->tables, t,
                             GetParam()))
      ++parsed;
  }
  for (int i = 0; i < 60; ++i) {
    SubjectTree t = gen.make_tree(1 + i % 3);
    expect_engines_agree(target->tree_grammar, *target->tables, t,
                         GetParam());
  }
  EXPECT_GT(parsed, 0) << "no tree of the corpus parses on " << GetParam();
}

TEST_P(BurstabModel, SelectionListingsIdentical) {
  util::DiagnosticSink diags;
  auto target =
      core::Record::retarget_model(GetParam(), core::RetargetOptions{}, diags);
  ASSERT_TRUE(target) << diags.str();

  // Accumulator shapes per model (mem2 non-empty: multiply-accumulate
  // terms, the DSP-style covers).
  struct Shape {
    const char* model;
    const char* acc;
    const char* mem1;
    const char* mem2;
  };
  constexpr Shape kShapes[] = {
      {"demo", "R0", "mem", ""},       {"ref", "R0", "dmem", ""},
      {"manocpu", "AC", "mem", ""},    {"tanenbaum", "AC", "mem", ""},
      {"bass_boost", "A", "sram", "crom"},
      {"tms320c25", "ACC", "ram", "ram"},
  };
  const Shape* shape = nullptr;
  for (const Shape& s : kShapes)
    if (std::string_view(s.model) == GetParam()) shape = &s;
  ASSERT_NE(shape, nullptr);

  ir::ProgramBuilder b(std::string(GetParam()) + "_diff");
  b.reg("acc", shape->acc);
  ir::ExprPtr sum;
  for (int i = 0; i < 6; ++i) {
    ir::ExprPtr term;
    if (shape->mem2[0] == '\0') {
      std::string v = "m" + std::to_string(i);
      b.cell(v, shape->mem1, i % 8);
      term = ir::e_var(v);
    } else {
      std::string u = "u" + std::to_string(i), v = "v" + std::to_string(i);
      b.cell(u, shape->mem1, i % 8);
      b.cell(v, shape->mem2, (i + 1) % 8);
      term = ir::e_mul(ir::e_var(u), ir::e_var(v));
    }
    sum = sum ? ir::e_add(std::move(sum), std::move(term))
              : std::move(term);
  }
  b.let("acc", std::move(sum));
  ir::Program prog = b.take();

  // The interpreter and the tables the retarget ships, side by side:
  // listings bit-identical.
  util::DiagnosticSink d1, d2;
  select::CodeSelector interp(*target->base, target->tree_grammar, d1);
  select::CodeSelector tabular(*target->base, target->tree_grammar, d2,
                               target->tables.get());
  EXPECT_EQ(interp.engine(), select::Engine::kInterpreter);
  EXPECT_EQ(tabular.engine(), select::Engine::kTables);
  auto ra = interp.select(prog);
  auto rb = tabular.select(prog);
  ASSERT_TRUE(ra) << d1.str();
  ASSERT_TRUE(rb) << d2.str();
  EXPECT_EQ(ra->total_rts, rb->total_rts);
  EXPECT_EQ(ra->listing(), rb->listing());
}

TEST_P(BurstabModel, ConcurrentOnDemandFillMatchesInterpreter) {
  // A shared target's first jobs fill its tables on demand from several
  // workers at once. Four threads labelling one corpus on one fresh
  // TargetTables must each get the interpreter's LabelResult, and leave the
  // tables holding as many states and transitions as a single-threaded fill
  // of the same corpus.
  util::DiagnosticSink diags;
  auto target =
      core::Record::retarget_model(GetParam(), core::RetargetOptions{}, diags);
  ASSERT_TRUE(target) << diags.str();
  const TreeGrammar& g = target->tree_grammar;

  RandomTreeGen gen(g, 31337);
  std::vector<SubjectTree> corpus;
  for (int i = 0; i < 120; ++i)
    corpus.push_back(i % 3 == 2 ? gen.make_tree(1 + i % 4)
                                : gen.make_assign(1 + i % 4));
  TreeParser interp(g);
  std::vector<LabelResult> expected;
  for (const SubjectTree& t : corpus) expected.push_back(interp.label(t));

  TargetTables serial(g);
  {
    TableParser p(g, serial);
    for (const SubjectTree& t : corpus) (void)p.label(t);
  }

  TargetTables shared(g);
  constexpr std::size_t kThreads = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k)
    threads.emplace_back([&, k] {
      TableParser p(g, shared);
      LabelResult r;
      // Each thread starts at its own offset: first uses race on the same
      // entries and on different ones.
      for (std::size_t i = 0; i < corpus.size(); ++i) {
        const std::size_t at =
            (i + k * corpus.size() / kThreads) % corpus.size();
        p.label_into(corpus[at], r);
        if (!same_labels(r, expected[at])) mismatches.fetch_add(1);
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const TableStats filled = shared.stats();
  EXPECT_GT(filled.transitions, 0u);
  EXPECT_EQ(filled.states, serial.stats().states);
  EXPECT_EQ(filled.transitions, serial.stats().transitions);
}

INSTANTIATE_TEST_SUITE_P(Models, BurstabModel,
                         ::testing::Values("demo", "ref", "manocpu",
                                           "tanenbaum", "bass_boost",
                                           "tms320c25"));

// --- serialization and cache ------------------------------------------------

TEST(BurstabSerialize, GrammarRoundTrip) {
  ConstrainedFixture f;
  ByteWriter w;
  write_grammar(w, f.g);
  ByteReader r(w.bytes());
  TreeGrammar g2;
  ASSERT_TRUE(read_grammar(r, g2));
  EXPECT_EQ(grammar_fingerprint(f.g), grammar_fingerprint(g2));
  EXPECT_EQ(g2.rules().size(), f.g.rules().size());
  EXPECT_EQ(g2.terminal_count(), f.g.terminal_count());
  for (std::size_t i = 0; i < f.g.rules().size(); ++i)
    EXPECT_EQ(grammar::pattern_to_string(g2, *g2.rules()[i].pattern),
              grammar::pattern_to_string(f.g, *f.g.rules()[i].pattern));
}

TEST(BurstabSerialize, TemplateBaseRoundTrip) {
  util::DiagnosticSink diags;
  core::RetargetOptions options;
  options.build_tables = false;
  auto target = core::Record::retarget_model("manocpu", options, diags);
  ASSERT_TRUE(target) << diags.str();

  ByteWriter w;
  write_template_base(w, *target->base);
  ByteReader r(w.bytes());
  rtl::TemplateBase base2;
  ASSERT_TRUE(read_template_base(r, base2));
  ASSERT_EQ(base2.templates.size(), target->base->templates.size());
  for (std::size_t i = 0; i < base2.templates.size(); ++i) {
    const rtl::RTTemplate& a = target->base->templates[i];
    const rtl::RTTemplate& b = base2.templates[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.signature(), b.signature());
    EXPECT_EQ(a.pretty(*target->base->mgr), b.pretty(*base2.mgr)) << i;
  }
  EXPECT_EQ(base2.instruction_width, target->base->instruction_width);
  EXPECT_EQ(base2.storage.size(), target->base->storage.size());
}

// The variable table on every built-in model and on generated models: one
// entry per manager variable, each spelling back the manager's name, the
// instruction bits leading, the cache-loaded table equal to the cold one,
// and the template base re-serialising to the same bytes (the cache format
// did not move).
TEST(BurstabSerialize, VarTableMatchesManagerColdAndLoaded) {
  std::vector<std::pair<std::string, std::string>> sources;  // (label, hdl)
  for (const models::ModelInfo& m : models::builtin_models())
    sources.emplace_back(m.name, std::string(models::model_source(m.name)));
  for (std::uint64_t seed = 0; seed <= 50; ++seed)
    sources.emplace_back("seed " + std::to_string(seed),
                         testgen::generate_model(seed).hdl);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "record-cache-vartable")
          .string();
  std::filesystem::remove_all(dir);
  core::RetargetOptions options;
  options.build_tables = false;
  options.use_target_cache = true;
  options.cache_dir = dir;
  for (const auto& [label, hdl] : sources) {
    SCOPED_TRACE(label);
    util::DiagnosticSink diags;
    auto cold = core::Record::retarget(hdl, options, diags);
    ASSERT_TRUE(cold) << diags.str();
    ASSERT_FALSE(cold->cache_hit);
    const rtl::TemplateBase& base = *cold->base;
    const bdd::BddManager& mgr = *base.mgr;
    ASSERT_EQ(base.vars.size(), mgr.var_count());
    for (int v = 0; v < mgr.var_count(); ++v) {
      EXPECT_EQ(rtl::var_name(base.vars[v]), mgr.var_name(v)) << v;
      EXPECT_EQ(rtl::parse_var_name(mgr.var_name(v)), base.vars[v]) << v;
    }
    EXPECT_TRUE(base.vars.instr_bits_lead(base.instruction_width));

    auto warm = core::Record::retarget(hdl, options, diags);
    ASSERT_TRUE(warm) << diags.str();
    ASSERT_TRUE(warm->cache_hit);
    EXPECT_EQ(warm->base->vars, base.vars);

    ByteWriter w;
    write_template_base(w, base);
    ByteReader r(w.bytes());
    rtl::TemplateBase loaded;
    ASSERT_TRUE(read_template_base(r, loaded));
    EXPECT_EQ(loaded.vars, base.vars);
    ByteWriter again;
    write_template_base(again, loaded);
    EXPECT_EQ(again.bytes(), w.bytes());
  }
  std::filesystem::remove_all(dir);
}

TEST(BurstabCoverage, RelabellingKeepsDistinctTransitions) {
  // Transition ids are handed out once, at insertion, and never renumbered:
  // labelling a corpus a second time may only hit ids already seen.
  PlainFixture f;
  TargetTables tables(f.g);  // every transition is created by labelling
  obs::CoverageMap::Config cc;
  cc.rules = f.g.rules().size();
  cc.states = 4096;
  cc.transitions = 4096;
  obs::CoverageMap map("relabel", std::move(cc));
  TableParser parser(f.g, tables);
  parser.set_coverage(&map);
  auto label_corpus = [&] {
    RandomTreeGen gen(f.g, 77);
    for (int i = 0; i < 200; ++i)
      (void)parser.label(gen.make_assign(1 + i % 5));
  };

  label_corpus();
  const obs::CoverageSnapshot first = map.snapshot();
  ASSERT_GT(first.transitions_covered(), 0u);
  EXPECT_EQ(first.transitions_covered(), tables.stats().transitions);
  EXPECT_EQ(first.counts.transition_overflow, 0u);

  label_corpus();
  const obs::CoverageSnapshot second = map.snapshot();
  EXPECT_EQ(second.transitions_covered(), first.transitions_covered());
  EXPECT_EQ(tables.stats().transitions, first.transitions_covered());
}

TEST(BurstabCoverage, MapCountsIdsOfTheFirstTablesInstanceOnly) {
  // Two tables instances of one grammar number their transitions in their
  // own first-use order, so one map must not mix their ids: it counts the
  // first instance that records into it, and the other's ids land in the
  // foreign-id counter.
  PlainFixture f;
  TargetTables first(f.g), second(f.g);
  ASSERT_NE(first.instance(), second.instance());
  obs::CoverageMap::Config cc;
  cc.rules = f.g.rules().size();
  cc.states = 4096;
  cc.transitions = 4096;
  obs::CoverageMap map("two-instances", std::move(cc));
  auto label_corpus = [&f, &map](const TargetTables& t, unsigned seed) {
    TableParser parser(f.g, t);
    parser.set_coverage(&map);
    RandomTreeGen gen(f.g, seed);
    for (int i = 0; i < 100; ++i) (void)parser.label(gen.make_assign(3));
  };

  label_corpus(first, 11);
  const obs::CoverageSnapshot one = map.snapshot();
  ASSERT_GT(one.transitions_covered(), 0u);
  EXPECT_EQ(one.counts.foreign_ids, 0u);

  label_corpus(second, 12);
  label_corpus(first, 11);  // the owner may attach again
  const obs::CoverageSnapshot both = map.snapshot();
  ASSERT_GT(second.stats().transitions, 0u);
  EXPECT_EQ(both.transitions_covered(), first.stats().transitions);
  EXPECT_EQ(both.states_covered(), one.states_covered());
  EXPECT_GT(both.counts.foreign_ids, 0u);
  EXPECT_EQ(both.counts.transition_overflow, 0u);
  // Rules are the grammar's, not the instance's: both corpora count.
  EXPECT_GE(both.rules_matched_covered(), one.rules_matched_covered());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

TEST(BurstabCache, WarmLoadServesIdenticalTarget) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "record-cache-test").string();
  std::filesystem::remove_all(dir);

  util::DiagnosticSink diags;
  core::RetargetOptions options;
  options.use_target_cache = true;
  options.cache_dir = dir;
  auto cold = core::Record::retarget_model("manocpu", options, diags);
  ASSERT_TRUE(cold) << diags.str();
  EXPECT_FALSE(cold->cache_hit);

  auto warm = core::Record::retarget_model("manocpu", options, diags);
  ASSERT_TRUE(warm) << diags.str();
  EXPECT_TRUE(warm->cache_hit);
  ASSERT_NE(warm->tables, nullptr);
  // Tables are not stored: a warm hit starts them empty, like a cold build.
  EXPECT_EQ(warm->tables->stats().states, 0u);
  EXPECT_EQ(warm->tables->stats().transitions, 0u);
  EXPECT_EQ(warm->processor, cold->processor);
  EXPECT_EQ(warm->base->templates.size(), cold->base->templates.size());
  EXPECT_EQ(grammar_fingerprint(warm->tree_grammar),
            grammar_fingerprint(cold->tree_grammar));
  EXPECT_EQ(warm->grammar_stats.rt_rules, cold->grammar_stats.rt_rules);
  EXPECT_EQ(warm->extract_stats.destinations,
            cold->extract_stats.destinations);

  // Selection through the warm target matches the cold one, both engines.
  ir::ProgramBuilder b("cache_diff");
  b.reg("acc", "AC");
  b.cell("m0", "mem", 0);
  b.cell("m1", "mem", 1);
  b.let("acc", ir::e_add(ir::e_var("m0"), ir::e_var("m1")));
  ir::Program prog = b.take();
  for (const core::RetargetResult* t : {&*cold, &*warm}) {
    util::DiagnosticSink d;
    select::CodeSelector sel(*t->base, t->tree_grammar, d,
                             t->tables.get());
    auto res = sel.select(prog);
    ASSERT_TRUE(res) << d.str();
  }
  util::DiagnosticSink dc, dw;
  select::CodeSelector sc(*cold->base, cold->tree_grammar, dc,
                          cold->tables.get());
  select::CodeSelector sw(*warm->base, warm->tree_grammar, dw,
                          warm->tables.get());
  EXPECT_EQ(sc.select(prog)->listing(), sw.select(prog)->listing());
  // Labelling one program fills the cold and the warm tables alike.
  EXPECT_GT(warm->tables->stats().transitions, 0u);
  EXPECT_EQ(warm->tables->stats().states, cold->tables->stats().states);
  EXPECT_EQ(warm->tables->stats().transitions,
            cold->tables->stats().transitions);

  // Storing the filled tables writes the bytes a store of fresh ones does.
  const std::uint64_t key = TargetCache::key_of(
      models::model_source("manocpu"), core::options_digest(options));
  const TargetCache cache(dir);
  const TargetTables fresh(warm->tree_grammar);
  auto stored_bytes = [&](const TargetTables& tables) {
    TargetArtifactsView view;
    view.processor = &warm->processor;
    view.base = warm->base.get();
    view.grammar = &warm->tree_grammar;
    view.tables = &tables;
    view.extract_stats = &warm->extract_stats;
    view.extend_stats = &warm->extend_stats;
    view.grammar_stats = &warm->grammar_stats;
    EXPECT_TRUE(cache.store(key, view));
    return read_file(cache.entry_path(key));
  };
  const std::string filled_bytes = stored_bytes(*warm->tables);
  EXPECT_EQ(filled_bytes, stored_bytes(fresh));
  EXPECT_FALSE(filled_bytes.empty());

  // Options that shape the artifacts key separately.
  core::RetargetOptions other = options;
  other.commutativity = false;
  auto different = core::Record::retarget_model("manocpu", other, diags);
  ASSERT_TRUE(different);
  EXPECT_FALSE(different->cache_hit);

  std::filesystem::remove_all(dir);
}

TEST(BurstabCache, CorruptBlobFallsBackToCleanRebuild) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "record-cache-corrupt")
          .string();
  std::filesystem::remove_all(dir);

  util::DiagnosticSink diags;
  core::RetargetOptions options;
  options.use_target_cache = true;
  options.cache_dir = dir;
  auto cold = core::Record::retarget_model("manocpu", options, diags);
  ASSERT_TRUE(cold) << diags.str();
  std::uint64_t key = TargetCache::key_of(
      models::model_source("manocpu"), core::options_digest(options));
  std::string path = TargetCache(dir).entry_path(key);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string blob = std::move(buf).str();
  in.close();

  auto write_blob = [&](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };
  auto expect_rebuilds = [&](const char* what) {
    // The corrupt entry must be treated as a miss: load() fails, the
    // pipeline rebuilds, and the result matches the original — no crash,
    // no garbage artifacts.
    EXPECT_FALSE(TargetCache(dir).load(key)) << what;
    util::DiagnosticSink d;
    auto rebuilt = core::Record::retarget_model("manocpu", options, d);
    ASSERT_TRUE(rebuilt) << what << ": " << d.str();
    EXPECT_FALSE(rebuilt->cache_hit) << what;
    EXPECT_EQ(rebuilt->base->templates.size(),
              cold->base->templates.size()) << what;
    EXPECT_EQ(grammar_fingerprint(rebuilt->tree_grammar),
              grammar_fingerprint(cold->tree_grammar)) << what;
  };

  // Truncations at several depths, down to the last byte.
  for (std::size_t keep : {std::size_t{0}, std::size_t{10}, blob.size() / 4,
                           blob.size() / 2, blob.size() - 1}) {
    write_blob(blob.substr(0, keep));
    expect_rebuilds("truncated blob");
  }
  // Single bit flips sprinkled through header and payload.
  for (std::size_t pos : {std::size_t{1}, std::size_t{17}, blob.size() / 3,
                          blob.size() / 2, blob.size() - 2}) {
    std::string flipped = blob;
    flipped[pos] = static_cast<char>(flipped[pos] ^ 0x20);
    write_blob(flipped);
    expect_rebuilds("bit-flipped blob");
  }

  // And after the rebuild re-stored a clean entry, the warm path works.
  write_blob(blob);
  auto warm = core::Record::retarget_model("manocpu", options, diags);
  ASSERT_TRUE(warm);
  EXPECT_TRUE(warm->cache_hit);

  std::filesystem::remove_all(dir);
}

// Shared by the degradation-tier tests: a tiny program whose listing must
// stay bit-identical across every fallback path.
ir::Program degradation_probe() {
  ir::ProgramBuilder b("degrade");
  b.reg("acc", "AC");
  b.cell("m0", "mem", 0);
  b.cell("m1", "mem", 1);
  b.let("acc", ir::e_add(ir::e_var("m0"), ir::e_var("m1")));
  return b.take();
}

std::string listing_of(const core::RetargetResult& t, const ir::Program& p,
                       const TargetTables* tables) {
  util::DiagnosticSink d;
  select::CodeSelector sel(*t.base, t.tree_grammar, d, tables);
  auto res = sel.select(p);
  EXPECT_TRUE(res) << d.str();
  return res ? res->listing() : std::string();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void put_le(std::string& bytes, std::size_t at, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i)
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xff);
}

// Replaces the first length-prefixed occurrence of `from` in a cache blob by
// `to` and recomputes the payload checksum (header: magic u32, version u32,
// key u64, checksum u64).
void plant_name(std::string& blob, const std::string& from,
                const std::string& to) {
  auto prefixed = [](const std::string& s) {
    std::string out(4, '\0');
    put_le(out, 0, s.size(), 4);
    return out + s;
  };
  const std::size_t at = blob.find(prefixed(from), 24);
  ASSERT_NE(at, std::string::npos) << from;
  blob.replace(at, from.size() + 4, prefixed(to));
  put_le(blob, 16, fnv1a(std::string_view(blob).substr(24)), 8);
}

TEST(BurstabCache, MalformedVariableNameIsRejectedAndRebuilds) {
  // Variable names under a recomputed (valid) checksum that the variable
  // table cannot stand behind: a mode bit without its index, and the
  // instruction bits out of place (I[1] at variable 0). Each must be a
  // rejected miss, never a template base whose names mean something else.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "record-cache-badvar")
          .string();
  std::filesystem::remove_all(dir);

  util::DiagnosticSink diags;
  core::RetargetOptions options;
  options.use_target_cache = true;
  options.cache_dir = dir;
  auto cold = core::Record::retarget_model("bass_boost", options, diags);
  ASSERT_TRUE(cold) << diags.str();
  const rtl::TemplateBase& base = *cold->base;
  int mode = 0;
  while (mode < base.vars.size() &&
         base.vars[mode].kind != rtl::Var::Kind::kMode)
    ++mode;
  ASSERT_LT(mode, base.vars.size());
  const rtl::Var& mode_var = base.vars[mode];
  ASSERT_EQ(base.mgr->var_name(0), "I[0]");
  ASSERT_EQ(base.mgr->var_name(1), "I[1]");

  std::uint64_t key = TargetCache::key_of(
      models::model_source("bass_boost"), core::options_digest(options));
  const std::string path = TargetCache(dir).entry_path(key);
  const std::string blob = read_file(path);

  std::string no_bit = blob;
  plant_name(no_bit, base.mgr->var_name(mode), "M:" + mode_var.inst);
  std::string swapped = blob;
  plant_name(swapped, "I[0]", "I[x]");
  plant_name(swapped, "I[1]", "I[0]");
  plant_name(swapped, "I[x]", "I[1]");

  for (const std::string& bad : {no_bit, swapped}) {
    ASSERT_NE(bad, blob);
    write_file(path, bad);
    const std::uint64_t rejected_before =
        obs::metrics().counter("burstab.cache.rejected").value();
    EXPECT_FALSE(TargetCache(dir).load(key));
    EXPECT_EQ(obs::metrics().counter("burstab.cache.rejected").value(),
              rejected_before + 1);

    util::DiagnosticSink d;
    auto rebuilt = core::Record::retarget_model("bass_boost", options, d);
    ASSERT_TRUE(rebuilt) << d.str();
    EXPECT_FALSE(rebuilt->cache_hit);
    EXPECT_EQ(rebuilt->base->vars, base.vars);
    // The rebuild re-stored the entry bit for bit.
    EXPECT_EQ(read_file(path), blob);
  }

  std::filesystem::remove_all(dir);
}

TEST(BurstabCache, TransientOpenErrorsRetryWithBackoff) {
  std::string dir =
      (std::filesystem::temp_directory_path() / "record-cache-eintr")
          .string();
  std::filesystem::remove_all(dir);
  util::failpoint_disarm_all();

  util::DiagnosticSink diags;
  core::RetargetOptions options;
  options.use_target_cache = true;
  options.cache_dir = dir;
  auto cold = core::Record::retarget_model("manocpu", options, diags);
  ASSERT_TRUE(cold) << diags.str();
  std::uint64_t key = TargetCache::key_of(
      models::model_source("manocpu"), core::options_digest(options));

  // One transient open failure: the retry loop absorbs it and the load
  // still succeeds.
  const std::uint64_t retry_before =
      obs::metrics().counter("burstab.cache.transient_retry").value();
  ASSERT_TRUE(util::failpoint_arm("burstab.cache.open", "once"));
  EXPECT_TRUE(TargetCache(dir).load(key).has_value());
  util::failpoint_disarm_all();
  EXPECT_GE(obs::metrics().counter("burstab.cache.transient_retry").value(),
            retry_before + 1);

  // A persistently failing open exhausts the retries: the load reads as a
  // miss and the pipeline rebuilds cleanly.
  ASSERT_TRUE(util::failpoint_arm("burstab.cache.open", "every:1"));
  EXPECT_FALSE(TargetCache(dir).load(key).has_value());
  util::DiagnosticSink d2;
  auto rebuilt = core::Record::retarget_model("manocpu", options, d2);
  util::failpoint_disarm_all();
  ASSERT_TRUE(rebuilt) << d2.str();
  EXPECT_FALSE(rebuilt->cache_hit);
  EXPECT_EQ(grammar_fingerprint(rebuilt->tree_grammar),
            grammar_fingerprint(cold->tree_grammar));

  std::filesystem::remove_all(dir);
}

TEST(BurstabCache, CorruptedBlobCompilesBitIdenticallyViaRebuild) {
  // The cache entry is damaged mid-file — a truncation, then a bit flip deep
  // in the payload — and the target must still compile bit-identically to
  // the pristine run, with the rejection observable on the cache counters.
  std::string dir =
      (std::filesystem::temp_directory_path() / "record-cache-midcorrupt")
          .string();
  std::filesystem::remove_all(dir);
  util::failpoint_disarm_all();

  util::DiagnosticSink diags;
  core::RetargetOptions options;
  options.use_target_cache = true;
  options.cache_dir = dir;
  auto cold = core::Record::retarget_model("manocpu", options, diags);
  ASSERT_TRUE(cold) << diags.str();
  const ir::Program prog = degradation_probe();
  const std::string reference = listing_of(*cold, prog, cold->tables.get());

  std::uint64_t key = TargetCache::key_of(
      models::model_source("manocpu"), core::options_digest(options));
  std::string path = TargetCache(dir).entry_path(key);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string blob = std::move(buf).str();
  in.close();
  auto write_blob = [&](const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  for (int variant = 0; variant < 2; ++variant) {
    if (variant == 0) {
      write_blob(blob.substr(0, blob.size() * 7 / 10));  // truncate at ~70%
    } else {
      std::string flipped = blob;
      flipped[blob.size() * 8 / 10] ^= 0x08;  // single bit flip at ~80%
      write_blob(flipped);
    }
    const std::uint64_t rejected_before =
        obs::metrics().counter("burstab.cache.rejected").value();
    util::DiagnosticSink d;
    auto recovered = core::Record::retarget_model("manocpu", options, d);
    ASSERT_TRUE(recovered) << d.str();
    EXPECT_FALSE(recovered->cache_hit);
    EXPECT_EQ(obs::metrics().counter("burstab.cache.rejected").value(),
              rejected_before + 1);
    ASSERT_TRUE(recovered->tables);
    EXPECT_EQ(listing_of(*recovered, prog, recovered->tables.get()),
              reference);
  }

  std::filesystem::remove_all(dir);
}

TEST(BurstabCache, OldVersionBlobRebuildsCleanly) {
  // Stale entries must read as a miss — the version word gates the whole
  // payload — and the pipeline must rebuild and re-store a current-version
  // entry. Two inputs: the current entry with its version word patched down
  // to 8 (the format that still carried a tables section), and a real v6
  // entry (frozen-pool tables section) for the duo
  // machine, checked in under tests/data.
  std::string dir =
      (std::filesystem::temp_directory_path() / "record-cache-oldver")
          .string();
  std::filesystem::remove_all(dir);

  util::DiagnosticSink diags;
  core::RetargetOptions options;
  options.use_target_cache = true;
  options.cache_dir = dir;
  auto cold = core::Record::retarget_model("manocpu", options, diags);
  ASSERT_TRUE(cold) << diags.str();
  std::uint64_t key = TargetCache::key_of(
      models::model_source("manocpu"), core::options_digest(options));
  std::string path = TargetCache(dir).entry_path(key);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string blob = std::move(buf).str();
  in.close();

  // Patch the version word (bytes 4..8, little endian) down to 8. The
  // checksum that follows only covers the payload, so the blob is
  // otherwise pristine — exactly what a stale on-disk entry looks like.
  ASSERT_GE(blob.size(), 8u);
  ASSERT_EQ(blob[4], 9);
  blob[4] = 8;
  blob[5] = blob[6] = blob[7] = 0;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  }
  EXPECT_FALSE(TargetCache(dir).load(key)) << "old version served as hit";

  util::DiagnosticSink d;
  auto rebuilt = core::Record::retarget_model("manocpu", options, d);
  ASSERT_TRUE(rebuilt) << d.str();
  EXPECT_FALSE(rebuilt->cache_hit);
  EXPECT_EQ(rebuilt->base->templates.size(), cold->base->templates.size());

  // The rebuild re-stored a current entry: next retarget is warm again.
  auto warm = core::Record::retarget_model("manocpu", options, d);
  ASSERT_TRUE(warm);
  EXPECT_TRUE(warm->cache_hit);

  // The v6 entry (written for tests/data/duo.hdl by the previous format)
  // lands at the path of the current duo key, with its header key patched
  // to match, so only the version word can turn it away.
  const std::string duo = read_file(RECORD_TESTS_DIR "/data/duo.hdl");
  std::string v6 = read_file(RECORD_TESTS_DIR "/data/duo_cache_v6.rtc");
  ASSERT_GE(v6.size(), 24u);
  ASSERT_EQ(v6[4], 6);
  const std::uint64_t duo_key =
      TargetCache::key_of(duo, core::options_digest(options));
  put_le(v6, 8, duo_key, 8);
  write_file(TargetCache(dir).entry_path(duo_key), v6);
  const std::uint64_t rejected_before =
      obs::metrics().counter("burstab.cache.rejected").value();
  EXPECT_FALSE(TargetCache(dir).load(duo_key)) << "v6 entry served as hit";
  EXPECT_EQ(obs::metrics().counter("burstab.cache.rejected").value(),
            rejected_before + 1);
  auto duo_cold = core::Record::retarget(duo, options, d);
  ASSERT_TRUE(duo_cold) << d.str();
  EXPECT_FALSE(duo_cold->cache_hit);
  auto duo_warm = core::Record::retarget(duo, options, d);
  ASSERT_TRUE(duo_warm);
  EXPECT_TRUE(duo_warm->cache_hit);

  std::filesystem::remove_all(dir);
}

TEST(BurstabCache, DiskFullAtCloseNeverPublishesTruncatedBlob) {
  // Regression: store() used to check the stream only after write() and let
  // the scope-exit destructor flush — an ENOSPC surfacing at close went
  // unnoticed and rename() published a truncated blob. The blob here is
  // smaller than the ofstream's 8 KiB buffer, so with RLIMIT_FSIZE shrunk
  // below the blob size the failure lands exactly at close().
  std::string dir =
      (std::filesystem::temp_directory_path() / "record-cache-diskfull")
          .string();
  std::filesystem::remove_all(dir);

  PlainFixture f;
  rtl::TemplateBase base;  // empty: tiny, fully-buffered blob
  std::string processor = "tinyproc";
  TargetArtifactsView view;
  view.processor = &processor;
  view.base = &base;
  view.grammar = &f.g;

  TargetCache cache(dir);
  const std::uint64_t key = 0x746e7970726f63ull;

  struct rlimit old_limit{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
  // Exceeding RLIMIT_FSIZE raises SIGXFSZ (default: kill) before write()
  // fails with EFBIG — ignore it so the error comes back through the stream.
  struct sigaction ignore_xfsz{}, old_xfsz{};
  ignore_xfsz.sa_handler = SIG_IGN;
  ASSERT_EQ(sigaction(SIGXFSZ, &ignore_xfsz, &old_xfsz), 0);
  struct rlimit tiny = old_limit;
  tiny.rlim_cur = 64;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &tiny), 0);

  bool stored = cache.store(key, view);

  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &old_limit), 0);
  ASSERT_EQ(sigaction(SIGXFSZ, &old_xfsz, nullptr), 0);

  EXPECT_FALSE(stored) << "store claimed success past the file-size limit";
  EXPECT_FALSE(std::filesystem::exists(cache.entry_path(key)))
      << "a truncated blob was published via rename()";
  // No stray temp file left behind either.
  std::size_t leftovers = 0;
  std::error_code ec;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator(dir, ec))
    ++leftovers;
  EXPECT_EQ(leftovers, 0u);

  // With the limit restored the identical store succeeds, produces a blob
  // that really was larger than the limit, and loads back.
  EXPECT_TRUE(cache.store(key, view));
  EXPECT_GT(std::filesystem::file_size(cache.entry_path(key)), 64u);
  EXPECT_TRUE(cache.load(key).has_value());

  std::filesystem::remove_all(dir);
}

TEST(BurstabCache, WarmLoadsAgreeAcrossProcesses) {
  // Concurrent child processes warm-load the same cache entry. Every child
  // must hit the cache and select the exact listing the cold parent built.
  std::string dir =
      (std::filesystem::temp_directory_path() / "record-cache-multiproc")
          .string();
  std::filesystem::remove_all(dir);

  util::DiagnosticSink diags;
  core::RetargetOptions options;
  options.use_target_cache = true;
  options.cache_dir = dir;
  auto cold = core::Record::retarget_model("manocpu", options, diags);
  ASSERT_TRUE(cold) << diags.str();
  ASSERT_FALSE(cold->cache_hit);

  ir::ProgramBuilder b("multiproc_agree");
  b.reg("acc", "AC");
  b.cell("m0", "mem", 0);
  b.cell("m1", "mem", 1);
  b.let("acc", ir::e_add(ir::e_var("m0"), ir::e_var("m1")));
  ir::Program prog = b.take();
  auto listing_of = [&prog](const core::RetargetResult& t) {
    util::DiagnosticSink d;
    select::CodeSelector sel(*t.base, t.tree_grammar, d, t.tables.get());
    auto res = sel.select(prog);
    return res ? res->listing() : std::string("<select failed>");
  };
  const std::uint64_t expect_hash = fnv1a(listing_of(*cold));

  constexpr int kChildren = 3;
  pid_t pids[kChildren];
  int read_fds[kChildren];
  for (int c = 0; c < kChildren; ++c) {
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(fds[0]);
      util::DiagnosticSink d;
      auto warm = core::Record::retarget_model("manocpu", options, d);
      std::uint8_t hit = 0;
      std::uint64_t h = 0;
      if (warm && warm->tables) {
        hit = warm->cache_hit ? 1 : 0;
        h = fnv1a(listing_of(*warm));
      }
      (void)!::write(fds[1], &hit, sizeof hit);
      (void)!::write(fds[1], &h, sizeof h);
      ::close(fds[1]);
      std::_Exit(0);  // skip gtest/atexit teardown in the child
    }
    ::close(fds[1]);
    pids[c] = pid;
    read_fds[c] = fds[0];
  }
  for (int c = 0; c < kChildren; ++c) {
    std::uint8_t hit = 0;
    std::uint64_t h = 0;
    EXPECT_EQ(::read(read_fds[c], &hit, sizeof hit),
              static_cast<ssize_t>(sizeof hit));
    EXPECT_EQ(::read(read_fds[c], &h, sizeof h),
              static_cast<ssize_t>(sizeof h));
    ::close(read_fds[c]);
    int status = 0;
    ASSERT_EQ(::waitpid(pids[c], &status, 0), pids[c]);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "child " << c << " died";
    EXPECT_EQ(hit, 1) << "child " << c << " missed the cache";
    EXPECT_EQ(h, expect_hash) << "child " << c << " listing diverged";
  }

  std::filesystem::remove_all(dir);
}

TEST(BurstabCache, CompilerEngineOption) {
  util::DiagnosticSink diags;
  auto target =
      core::Record::retarget_model("manocpu", core::RetargetOptions{}, diags);
  ASSERT_TRUE(target) << diags.str();
  ir::ProgramBuilder b("engine_opt");
  b.reg("acc", "AC");
  b.cell("m0", "mem", 0);
  b.let("acc", ir::e_add(ir::e_var("acc"), ir::e_var("m0")));
  ir::Program prog = b.take();

  core::Compiler compiler(*target);
  core::CompileOptions interp_opts;
  interp_opts.engine = select::Engine::kInterpreter;
  core::CompileOptions table_opts;
  table_opts.engine = select::Engine::kTables;
  util::DiagnosticSink d1, d2;
  auto a = compiler.compile(prog, interp_opts, d1);
  auto c = compiler.compile(prog, table_opts, d2);
  ASSERT_TRUE(a) << d1.str();
  ASSERT_TRUE(c) << d2.str();
  EXPECT_EQ(a->listing(), c->listing());
  EXPECT_EQ(a->code_size(), c->code_size());
}

TEST(Satellites, WorkDirDefaultIsPidUniqueUnderSystemTemp) {
  core::RetargetOptions options;
  EXPECT_EQ(options.work_dir, core::default_work_dir());
  EXPECT_FALSE(options.work_dir.empty());
  // A pid-unique subdirectory of the system temp dir, so concurrent
  // processes cannot clobber each other's generated parser files. It is
  // created on first parser emission, not here (constructing options must
  // leave no droppings) — integration_test covers the write path.
  std::filesystem::path dir(options.work_dir);
  EXPECT_EQ(dir.parent_path(), std::filesystem::temp_directory_path());
  EXPECT_NE(dir.filename().string().find("record-work-"), std::string::npos);
}

}  // namespace
}  // namespace record::burstab
