#include <gtest/gtest.h>

#include "rtl/extend.h"
#include "rtl/rewrite.h"
#include "rtl/template.h"

namespace record::rtl {
namespace {

RTNodePtr reg(const char* name, int w = 16) { return make_reg_read(name, w); }

RTNodePtr add(RTNodePtr a, RTNodePtr b, int w = 16) {
  std::vector<RTNodePtr> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  return make_op(OpSig{hdl::OpKind::Add, "", w}, std::move(kids));
}

RTNodePtr sub(RTNodePtr a, RTNodePtr b, int w = 16) {
  std::vector<RTNodePtr> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  return make_op(OpSig{hdl::OpKind::Sub, "", w}, std::move(kids));
}

RTNodePtr shl(RTNodePtr a, RTNodePtr b, int w = 16) {
  std::vector<RTNodePtr> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  return make_op(OpSig{hdl::OpKind::Shl, "", w}, std::move(kids));
}

RTTemplate make_template(RTNodePtr value, const char* dest = "A") {
  RTTemplate t;
  t.dest_kind = DestKind::Register;
  t.dest = dest;
  t.dest_width = 16;
  t.value = std::move(value);
  t.provenance = "test";
  return t;
}

TEST(OpSig, NamesIncludeWidth) {
  EXPECT_EQ((OpSig{hdl::OpKind::Add, "", 16}).name(), "+.16");
  EXPECT_EQ((OpSig{hdl::OpKind::Mul, "", 32}).name(), "*.32");
  EXPECT_EQ((OpSig{hdl::OpKind::Custom, "RND", 16}).name(), "RND.16");
}

TEST(OpSig, SliceOpNaming) {
  OpSig lo = slice_op_sig(15, 0);
  EXPECT_EQ(lo.name(), "bits15_0.16");
  OpSig hi = slice_op_sig(31, 16);
  EXPECT_EQ(hi.name(), "bits31_16.16");
  EXPECT_EQ(hi.width, 16);
}

TEST(RTNode, ToStringCanonical) {
  RTNodePtr t = add(reg("A"), make_hard_const(1, 16));
  EXPECT_EQ(to_string(*t), "+.16(A,#1.16)");
  RTNodePtr m = make_mem_load("ram", 16, make_imm({0, 1, 2, 3}));
  EXPECT_EQ(to_string(*m), "ram[#imm.4@0]");
  RTNodePtr m2 = make_mem_load("ram", 16, make_imm({8, 9}));
  EXPECT_EQ(to_string(*m2), "ram[#imm.2@8]");
}

TEST(RTNode, EqualIsStructural) {
  RTNodePtr a = add(reg("A"), reg("B"));
  RTNodePtr b = add(reg("A"), reg("B"));
  RTNodePtr c = add(reg("B"), reg("A"));
  EXPECT_TRUE(equal(*a, *b));
  EXPECT_FALSE(equal(*a, *c));
}

TEST(RTNode, CloneIsDeep) {
  RTNodePtr a = add(reg("A"), reg("B"));
  RTNodePtr b = a->clone();
  EXPECT_TRUE(equal(*a, *b));
  EXPECT_NE(a->children[0].get(), b->children[0].get());
}

TEST(RTNode, TreeSize) {
  EXPECT_EQ(tree_size(*reg("A")), 1u);
  EXPECT_EQ(tree_size(*add(reg("A"), add(reg("B"), reg("C")))), 5u);
}

TEST(TemplateBase, AddUniqueDeduplicates) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  EXPECT_TRUE(base.add_unique(make_template(add(reg("A"), reg("B")))));
  EXPECT_FALSE(base.add_unique(make_template(add(reg("A"), reg("B")))));
  EXPECT_TRUE(base.add_unique(make_template(add(reg("B"), reg("A")))));
  EXPECT_EQ(base.size(), 2u);
  EXPECT_EQ(base.templates[0].id, 0);
  EXPECT_EQ(base.templates[1].id, 1);
}

TEST(Extend, CommutativityAddsSwappedVariant) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  base.add_unique(make_template(add(reg("A"), reg("B"))));
  ExtendOptions options;
  ExtendStats stats = extend_template_base(base, options);
  EXPECT_EQ(stats.commutative_added, 1u);
  EXPECT_EQ(base.templates[1].signature(), "A := +.16(B,A)");
  EXPECT_EQ(base.templates[1].provenance, "commute(0)");
}

TEST(Extend, NonCommutativeOpsUntouched) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  base.add_unique(make_template(sub(reg("A"), reg("B"))));
  ExtendStats stats = extend_template_base(base, ExtendOptions{});
  EXPECT_EQ(stats.commutative_added, 0u);
}

TEST(Extend, IdenticalChildrenNotSwapped) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  base.add_unique(make_template(add(reg("A"), reg("A"))));
  ExtendStats stats = extend_template_base(base, ExtendOptions{});
  EXPECT_EQ(stats.commutative_added, 0u);
}

TEST(Extend, NestedCommutativeNodesGenerateCombinations) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  // (A + B) + C: three commutable nodes -> 3 variants (2^2 - 1).
  base.add_unique(make_template(add(add(reg("A"), reg("B")), reg("C"))));
  ExtendStats stats = extend_template_base(base, ExtendOptions{});
  EXPECT_EQ(stats.commutative_added, 3u);
  EXPECT_EQ(base.size(), 4u);
}

TEST(Extend, VariantCapRespected) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  // Deep sum: many commutative nodes.
  RTNodePtr t = reg("R0");
  for (int i = 1; i < 12; ++i)
    t = add(std::move(t), reg(("R" + std::to_string(i)).c_str()));
  base.add_unique(make_template(std::move(t)));
  ExtendOptions options;
  options.max_variants_per_template = 16;
  ExtendStats stats = extend_template_base(base, options);
  EXPECT_LE(stats.commutative_added, 16u);
  EXPECT_EQ(stats.variant_capped, 1u);
}

TEST(Rewrite, Shl1BecomesAddSelf) {
  RewriteLibrary lib = RewriteLibrary::standard();
  RTNodePtr t = shl(reg("A"), make_hard_const(1, 16));
  const RewriteRule* rule = nullptr;
  for (const RewriteRule& r : lib.rules())
    if (r.name == "shl1-to-add") rule = &r;
  ASSERT_NE(rule, nullptr);
  auto variants = apply_rule(*t, *rule);
  ASSERT_EQ(variants.size(), 1u);
  EXPECT_EQ(to_string(*variants[0]), "+.16(A,A)");
}

TEST(Rewrite, VariableBindingIsConsistent) {
  // add(x, neg(y)) -> sub(x, y): x and y bind distinct subtrees.
  RewriteLibrary lib = RewriteLibrary::standard();
  const RewriteRule* rule = nullptr;
  for (const RewriteRule& r : lib.rules())
    if (r.name == "addneg-to-sub") rule = &r;
  ASSERT_NE(rule, nullptr);
  std::vector<RTNodePtr> neg_kids;
  neg_kids.push_back(reg("B"));
  RTNodePtr t = add(reg("A"), make_op(OpSig{hdl::OpKind::Neg, "", 16},
                                      std::move(neg_kids)));
  auto variants = apply_rule(*t, *rule);
  ASSERT_EQ(variants.size(), 1u);
  EXPECT_EQ(to_string(*variants[0]), "-.16(A,B)");
}

TEST(Rewrite, AppliesAtInnerPositions) {
  RewriteLibrary lib = RewriteLibrary::standard();
  const RewriteRule* rule = nullptr;
  for (const RewriteRule& r : lib.rules())
    if (r.name == "add0-elim") rule = &r;
  ASSERT_NE(rule, nullptr);
  // sub(add(A, 0), B) -> sub(A, B) via the inner position.
  RTNodePtr t = sub(add(reg("A"), make_hard_const(0, 16)), reg("B"));
  auto variants = apply_rule(*t, *rule);
  ASSERT_EQ(variants.size(), 1u);
  EXPECT_EQ(to_string(*variants[0]), "-.16(A,B)");
}

TEST(Rewrite, NoMatchYieldsNoVariants) {
  RewriteLibrary lib = RewriteLibrary::standard();
  RTNodePtr t = reg("A");
  for (const RewriteRule& r : lib.rules())
    EXPECT_TRUE(apply_rule(*t, r).empty()) << r.name;
}

TEST(Rewrite, ExtendAppliesLibrary) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  base.add_unique(make_template(shl(reg("A"), make_hard_const(1, 16))));
  RewriteLibrary lib = RewriteLibrary::standard();
  ExtendOptions options;
  options.commutativity = false;
  options.rewrites = &lib;
  ExtendStats stats = extend_template_base(base, options);
  EXPECT_GE(stats.rewrite_added, 1u);
  bool found = false;
  for (const auto& t : base.templates)
    if (t.signature() == "A := +.16(A,A)") found = true;
  EXPECT_TRUE(found);
}

TEST(Rewrite, CustomLibrary) {
  // mul(x, 2) => shl(x, 1)
  RewriteLibrary lib;
  {
    std::vector<RWPatPtr> l;
    l.push_back(pat_var("x"));
    l.push_back(pat_const(2));
    std::vector<RWPatPtr> r;
    r.push_back(pat_var("x"));
    r.push_back(pat_const(1));
    lib.add("mul2-to-shl", pat_op(hdl::OpKind::Mul, std::move(l)),
            pat_op(hdl::OpKind::Shl, std::move(r)));
  }
  std::vector<RTNodePtr> kids;
  kids.push_back(reg("A"));
  kids.push_back(make_hard_const(2, 16));
  RTNodePtr t = make_op(OpSig{hdl::OpKind::Mul, "", 16}, std::move(kids));
  auto variants = apply_rule(*t, lib.rules()[0]);
  ASSERT_EQ(variants.size(), 1u);
  EXPECT_EQ(to_string(*variants[0]), "<<.16(A,#1.16)");
}

TEST(Template, SignatureIncludesMemoryAddress) {
  RTTemplate t;
  t.dest_kind = DestKind::Memory;
  t.dest = "ram";
  t.dest_width = 16;
  t.addr = make_imm({0, 1, 2});
  t.value = reg("A");
  EXPECT_EQ(t.signature(), "ram[#imm.3@0] := A");
}

TEST(Template, PrettyIncludesCondition) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  int v = base.vars.add(*base.mgr, Var::instr(0));
  RTTemplate t = make_template(reg("B"));
  t.cond = base.mgr->var(v);
  EXPECT_NE(t.pretty(*base.mgr).find("I[0]"), std::string::npos);
}

}  // namespace
}  // namespace record::rtl
