#include <gtest/gtest.h>

#include "burstab/tables.h"
#include "core/record.h"
#include "ir/builder.h"
#include "models/workload.h"
#include "obs/coverage.h"
#include "select/selector.h"
#include "select/subject_map.h"

namespace record::select {
namespace {

/// Shared retarget of the tms320c25 model (expensive; done once).
const core::RetargetResult& c25() {
  static const core::RetargetResult target = [] {
    util::DiagnosticSink diags;
    auto r = core::Record::retarget_model("tms320c25",
                                          core::RetargetOptions{}, diags);
    EXPECT_TRUE(r) << diags.str();
    return std::move(*r);
  }();
  return target;
}

SelectionResult select_program(const ir::Program& prog) {
  util::DiagnosticSink diags;
  CodeSelector selector(*c25().base, c25().tree_grammar, diags);
  auto result = selector.select(prog);
  EXPECT_TRUE(result) << diags.str();
  return result ? std::move(*result) : SelectionResult{};
}

TEST(SubjectMap, RegisterDestination) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC").cell("x", "ram", 7);
  b.let("acc", ir::e_var("x"));
  ir::Program prog = b.take();
  util::DiagnosticSink diags;
  SubjectMapper mapper(*c25().base, c25().tree_grammar, prog, diags);
  auto subject = mapper.map_stmt(prog.stmts()[0]);
  ASSERT_TRUE(subject) << diags.str();
  EXPECT_EQ(subject->to_string(c25().tree_grammar),
            "ASSIGN($dest:ACC, load:ram.16(7))");
}

TEST(SubjectMap, MemoryDestinationBecomesStore) {
  ir::ProgramBuilder b("t");
  b.cell("x", "ram", 1).cell("y", "ram", 2);
  b.let("y", ir::e_var("x"));
  ir::Program prog = b.take();
  util::DiagnosticSink diags;
  SubjectMapper mapper(*c25().base, c25().tree_grammar, prog, diags);
  auto subject = mapper.map_stmt(prog.stmts()[0]);
  ASSERT_TRUE(subject);
  EXPECT_EQ(subject->to_string(c25().tree_grammar),
            "ASSIGN($dest:ram, store:ram(2, load:ram.16(1)))");
}

TEST(SubjectMap, WidthResolution) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC").cell("x", "ram", 1).cell("y", "ram", 2);
  b.let("acc", ir::e_add(ir::e_var("acc"),
                         ir::e_mul(ir::e_var("x"), ir::e_var("y"))));
  ir::Program prog = b.take();
  util::DiagnosticSink diags;
  SubjectMapper mapper(*c25().base, c25().tree_grammar, prog, diags);
  const ir::Expr& rhs = *prog.stmts()[0].rhs;
  EXPECT_EQ(mapper.resolve_width(rhs), 32);            // add at ACC width
  EXPECT_EQ(mapper.resolve_width(*rhs.args[1]), 32);   // 16x16 -> 32 mul
  EXPECT_EQ(mapper.resolve_width(*rhs.args[1]->args[0]), 16);
}

TEST(SubjectMap, LoIntrinsicUsesSliceNames) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC").cell("y", "ram", 2);
  b.let("y", ir::e_lo(ir::e_var("acc")));
  ir::Program prog = b.take();
  util::DiagnosticSink diags;
  SubjectMapper mapper(*c25().base, c25().tree_grammar, prog, diags);
  auto subject = mapper.map_stmt(prog.stmts()[0]);
  ASSERT_TRUE(subject);
  EXPECT_NE(subject->to_string(c25().tree_grammar).find("bits15_0.16"),
            std::string::npos);
}

TEST(SubjectMap, UnknownOperationDiagnosed) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.let("acc", ir::e_bin(hdl::OpKind::Div, ir::e_var("acc"),
                         ir::e_var("acc")));
  ir::Program prog = b.take();
  util::DiagnosticSink diags;
  SubjectMapper mapper(*c25().base, c25().tree_grammar, prog, diags);
  EXPECT_FALSE(mapper.map_stmt(prog.stmts()[0]).has_value());
  EXPECT_NE(diags.str().find("not available"), std::string::npos);
}

TEST(Selector, LoadAddStore) {
  ir::ProgramBuilder b("t");
  b.cell("a", "ram", 1).cell("bb", "ram", 2).cell("c", "ram", 3);
  b.let("c", ir::e_add(ir::e_var("a"), ir::e_var("bb")));
  SelectionResult sel = select_program(b.take());
  // LAC a; ADD bb; SACL c.
  ASSERT_EQ(sel.stmts.size(), 1u);
  EXPECT_EQ(sel.stmts[0].rts.size(), 3u);
  EXPECT_EQ(sel.stmts[0].parse_cost, 3);
}

TEST(Selector, MacChainUsesSpecialRegisters) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.cell("x", "ram", 1).cell("h", "ram", 2);
  b.let("acc", ir::e_add(ir::e_var("acc"),
                         ir::e_mul(ir::e_var("x"), ir::e_var("h"))));
  SelectionResult sel = select_program(b.take());
  // LT x; MPY h; APAC — T and P allocated implicitly by the derivation.
  ASSERT_EQ(sel.stmts[0].rts.size(), 3u);
  EXPECT_EQ(sel.stmts[0].rts[0].dest, "T");
  EXPECT_EQ(sel.stmts[0].rts[1].dest, "P");
  EXPECT_EQ(sel.stmts[0].rts[2].dest, "ACC");
}

TEST(Selector, ReadsTrackOperandStorages) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.cell("x", "ram", 1).cell("h", "ram", 2);
  b.let("acc", ir::e_add(ir::e_var("acc"),
                         ir::e_mul(ir::e_var("x"), ir::e_var("h"))));
  SelectionResult sel = select_program(b.take());
  const SelectedRT& mpy = sel.stmts[0].rts[1];
  EXPECT_NE(std::find(mpy.reads.begin(), mpy.reads.end(), "T"),
            mpy.reads.end());
  EXPECT_NE(std::find(mpy.reads.begin(), mpy.reads.end(), "ram"),
            mpy.reads.end());
  const SelectedRT& apac = sel.stmts[0].rts[2];
  EXPECT_NE(std::find(apac.reads.begin(), apac.reads.end(), "P"),
            apac.reads.end());
}

TEST(Selector, ImmediateEncodedIntoCondition) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.cell("x", "ram", 5);
  b.let("acc", ir::e_var("x"));
  SelectionResult sel = select_program(b.take());
  ASSERT_EQ(sel.stmts[0].rts.size(), 1u);  // LAC x
  const SelectedRT& lac = sel.stmts[0].rts[0];
  ASSERT_EQ(lac.imms.size(), 1u);
  EXPECT_EQ(lac.imms[0].value, 5);
  // Condition must force instruction bit 0 (= address bit 0) to 1 and
  // bit 1 to 0 (address 5 = 0b101).
  bdd::BddManager& mgr = *c25().base->mgr;
  EXPECT_EQ(mgr.land(lac.cond, mgr.nvar(0)), bdd::kFalse);
  EXPECT_EQ(mgr.land(lac.cond, mgr.var(1)), bdd::kFalse);
}

TEST(Selector, ZeroConstantUsesZac) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.let("acc", ir::e_const(0));
  SelectionResult sel = select_program(b.take());
  EXPECT_EQ(sel.stmts[0].rts.size(), 1u);
  EXPECT_EQ(sel.stmts[0].parse_cost, 1);
}

TEST(Selector, ImmediateLoadUsesLack) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.let("acc", ir::e_const(1234));
  SelectionResult sel = select_program(b.take());
  EXPECT_EQ(sel.stmts[0].rts.size(), 1u);
}

TEST(Selector, BranchesUsePcTemplates) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.label("top");
  b.let("acc", ir::e_const(0));
  b.program().branch_if_not_zero("acc", "top");
  SelectionResult sel = select_program(b.take());
  ASSERT_EQ(sel.stmts.size(), 3u);
  EXPECT_TRUE(sel.stmts[0].is_label);
  ASSERT_EQ(sel.stmts[2].rts.size(), 1u);
  const SelectedRT& br = sel.stmts[2].rts[0];
  EXPECT_TRUE(br.is_branch);
  EXPECT_EQ(br.dest, "PC");
  EXPECT_EQ(br.branch_target, "top");
}

TEST(Selector, StatementsShareNothing) {
  // Two independent statements produce independent RT lists in order.
  ir::ProgramBuilder b("t");
  b.cell("a", "ram", 1).cell("c", "ram", 3).cell("d", "ram", 4);
  b.let("c", ir::e_var("a"));
  b.let("d", ir::e_var("a"));
  SelectionResult sel = select_program(b.take());
  ASSERT_EQ(sel.stmts.size(), 2u);
  EXPECT_EQ(sel.stmts[0].rts.size(), 2u);  // LAC; SACL
  EXPECT_EQ(sel.stmts[1].rts.size(), 2u);
  EXPECT_EQ(sel.total_rts, 4u);
}

TEST(Selector, ListingMentionsStatements) {
  ir::ProgramBuilder b("t");
  b.cell("a", "ram", 1).cell("c", "ram", 3);
  b.let("c", ir::e_var("a"));
  SelectionResult sel = select_program(b.take());
  std::string listing = sel.listing();
  EXPECT_NE(listing.find("c = a"), std::string::npos);
  EXPECT_NE(listing.find("ACC"), std::string::npos);
}

TEST(Selector, MissingBindingFailsCleanly) {
  ir::Program prog("t");
  prog.assign("ghost", ir::e_const(1));
  util::DiagnosticSink diags;
  CodeSelector selector(*c25().base, c25().tree_grammar, diags);
  EXPECT_FALSE(selector.select(prog).has_value());
  EXPECT_FALSE(diags.ok());
}

// --- coverage-map agreement across labelling engines -------------------------

// Grammar-rule coverage is an engine-independent fact: whichever engine
// labels the subject trees (interpreter or state tables), the set of rules
// matched per node and the rules chosen in the optimal derivation must be
// identical. This pins the coverage
// instrumentation itself — a divergence here means one engine's record path
// (not its selection) went wrong.
TEST(Selector, CoverageMapsAgreeAcrossEnginesOnAllModels) {
  for (const models::ChainShape& s : models::kChainShapes) {
    util::DiagnosticSink diags;
    auto target =
        core::Record::retarget_model(s.model, core::RetargetOptions{}, diags);
    ASSERT_TRUE(target) << s.model << ": " << diags.str();
    ASSERT_TRUE(target->tables) << s.model << ": no tables";

    struct EngineRun {
      const char* name;
      const burstab::TargetTables* tables;
    };
    const EngineRun engines[] = {
        {"interpreter", nullptr},
        {"tables", target->tables.get()},
    };

    const ir::Program prog = models::chain_program(s, 6);
    std::vector<obs::CoverageSnapshot> snaps;
    for (const EngineRun& e : engines) {
      obs::CoverageMap::Config cc;
      cc.rules = target->tree_grammar.rules().size();
      cc.states = 4096;
      cc.transitions = 1 << 16;
      obs::CoverageMap map(e.name, std::move(cc));
      util::DiagnosticSink d;
      CodeSelector sel(*target->base, target->tree_grammar, d, e.tables);
      sel.set_coverage(&map);
      ASSERT_TRUE(sel.select(prog)) << s.model << "/" << e.name << ": "
                                    << d.str();
      snaps.push_back(map.snapshot());
    }

    const obs::CoverageSnapshot& interp = snaps[0];
    const obs::CoverageSnapshot& tables = snaps[1];
    // Rule coverage agrees hit-for-hit across both engines.
    EXPECT_EQ(interp.counts.rules_matched, tables.counts.rules_matched)
        << s.model << ": interpreter vs tables matched-rule counts";
    EXPECT_EQ(interp.counts.rules_chosen, tables.counts.rules_chosen)
        << s.model << ": interpreter vs tables chosen-rule counts";
    EXPECT_GT(tables.rules_chosen_covered(), 0u) << s.model;

    // Engine-specific dimensions land where they should: the interpreter
    // has no interned states or table lookups at all; the tables hit states
    // and transitions by id, all inside the map.
    EXPECT_EQ(interp.states_covered(), 0u) << s.model;
    EXPECT_EQ(interp.counts.cold_transitions, 0u) << s.model;
    EXPECT_EQ(interp.transitions_covered(), 0u) << s.model;
    EXPECT_GT(tables.states_covered(), 0u) << s.model;
    EXPECT_GT(tables.transitions_covered(), 0u) << s.model;
    EXPECT_EQ(tables.counts.transition_overflow, 0u) << s.model;
  }
}

}  // namespace
}  // namespace record::select
