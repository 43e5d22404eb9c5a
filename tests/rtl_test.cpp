#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "core/record.h"
#include "models/models.h"
#include "rtl/extend.h"
#include "rtl/rewrite.h"
#include "rtl/template.h"
#include "testgen/modelgen.h"

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
  auto variants = apply_rule(*t, preorder_nodes(*t), *rule);
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
  auto variants = apply_rule(*t, preorder_nodes(*t), *rule);
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
  auto variants = apply_rule(*t, preorder_nodes(*t), *rule);
  ASSERT_EQ(variants.size(), 1u);
  EXPECT_EQ(to_string(*variants[0]), "-.16(A,B)");
}

TEST(Rewrite, NoMatchYieldsNoVariants) {
  RewriteLibrary lib = RewriteLibrary::standard();
  RTNodePtr t = reg("A");
  for (const RewriteRule& r : lib.rules())
    EXPECT_TRUE(apply_rule(*t, preorder_nodes(*t), r).empty()) << r.name;
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
  auto variants = apply_rule(*t, preorder_nodes(*t), lib.rules()[0]);
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

// --- rendering ---------------------------------------------------------------
//
// to_string / signature / OpSig::name are the dedup key of add_unique and the
// text of listings and diagnostics: every node kind's rendering is pinned.

TEST(Render, OpSigNames) {
  EXPECT_EQ(slice_op_sig(15, 8).name(), "bits15_8.8");
  EXPECT_EQ((OpSig{hdl::OpKind::Sub, "", 8}).name(), "-.8");
  EXPECT_EQ((OpSig{hdl::OpKind::Custom, "SAT", 40}).name(), "SAT.40");
  EXPECT_EQ((OpSig{hdl::OpKind::Shl, "", 16}).name(), "<<.16");
}

TEST(Render, EveryNodeKind) {
  std::vector<RTNodePtr> kids;
  kids.push_back(reg("ACC", 16));
  EXPECT_EQ(to_string(*make_op(slice_op_sig(15, 8), std::move(kids))),
            "bits15_8.8(ACC)");
  EXPECT_EQ(to_string(*make_op(OpSig{hdl::OpKind::Custom, "CLR", 4}, {})),
            "CLR.4()");
  EXPECT_EQ(to_string(*reg("AR0", 8)), "AR0");
  EXPECT_EQ(to_string(*make_port_in("DIN", 16)), "@DIN");
  EXPECT_EQ(to_string(*make_hard_const(-5, 8)), "#-5.8");
  EXPECT_EQ(to_string(*make_hard_const(INT64_MIN, 64)),
            "#-9223372036854775808.64");
  EXPECT_EQ(to_string(*make_hard_const(0, 1)), "#0.1");
  EXPECT_EQ(to_string(*make_imm({12, 13, 14})), "#imm.3@12");
  EXPECT_EQ(to_string(*make_imm({})), "#imm.0");
  RTNodePtr load =
      make_mem_load("ram", 16, add(reg("AR", 8), make_imm({0, 1, 2}), 8));
  EXPECT_EQ(to_string(*load), "ram[+.8(AR,#imm.3@0)]");
}

TEST(Render, TemplateSignatures) {
  RTTemplate store;
  store.dest_kind = DestKind::Memory;
  store.dest = "dm";
  store.dest_width = 16;
  store.addr = add(reg("AR", 8), make_hard_const(-1, 8), 8);
  store.value = sub(reg("ACC"), make_mem_load("dm", 16, reg("AR", 8)));
  EXPECT_EQ(store.signature(), "dm[+.8(AR,#-1.8)] := -.16(ACC,dm[AR])");

  RTTemplate out = make_template(make_port_in("DIN", 16), "OUT");
  out.dest_kind = DestKind::ProcOut;
  EXPECT_EQ(out.signature(), "OUT := @DIN");

  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  const int v = base.vars.add(*base.mgr, Var::instr(0));
  RTTemplate t = make_template(reg("B"));
  t.cond = base.mgr->nvar(v);
  EXPECT_EQ(t.pretty(*base.mgr),
            "A := B   when " + base.mgr->to_sop(base.mgr->nvar(v)));
}

/// 64-bit FNV-1a over every template signature, each followed by '\n'.
std::string signature_digest(const TemplateBase& base) {
  std::uint64_t h = 1469598103934665603ull;
  for (const RTTemplate& t : base.templates)
    for (unsigned char c : t.signature() + "\n")
      h = (h ^ c) * 1099511628211ull;
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

// Pinned signature digests (tests/data/template_signatures.txt) of the six
// built-in models, from a cold retarget and from the target cache.
TEST(Render, BuiltinSignatureDigestsPinned) {
  std::ifstream in(std::string(RECORD_TESTS_DIR) +
                   "/data/template_signatures.txt");
  ASSERT_TRUE(in);
  const std::string dir = (std::filesystem::temp_directory_path() /
                           "record-rtl-signature-cache")
                              .string();
  std::filesystem::remove_all(dir);
  core::RetargetOptions cached;
  cached.use_target_cache = true;
  cached.cache_dir = dir;
  int checked = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string model, digest;
    std::size_t count = 0;
    fields >> model >> count >> digest;
    util::DiagnosticSink diags;
    auto cold = core::Record::retarget_model(model, cached, diags);
    auto warm = core::Record::retarget_model(model, cached, diags);
    ASSERT_TRUE(cold && warm) << model << ": " << diags.str();
    EXPECT_FALSE(cold->cache_hit) << model;
    EXPECT_TRUE(warm->cache_hit) << model;
    for (const auto* r : {&*cold, &*warm}) {
      EXPECT_EQ(r->base->templates.size(), count) << model;
      EXPECT_EQ(signature_digest(*r->base), digest) << model;
    }
    ++checked;
  }
  std::filesystem::remove_all(dir);
  EXPECT_EQ(checked, 6);
}

// --- write conditions --------------------------------------------------------
//
// write_conditions derives everything once per distinct condition; the
// reference below quantifies every template's condition on its own.

/// The cube of `c` as write_conditions lays it out: instruction bits the
/// condition implies positively, then negatively.
std::vector<std::uint64_t> reference_cube(const TemplateBase& base,
                                          bdd::Ref c) {
  const std::size_t words =
      (static_cast<std::size_t>(base.instruction_width) + 63) / 64;
  std::vector<std::uint64_t> cube(2 * words, 0);
  const bdd::Literals lits = base.mgr->implied(c);
  for (int k = 0; k < base.instruction_width; ++k) {
    const std::size_t w = static_cast<std::size_t>(k) / 64;
    const std::uint64_t bit = std::uint64_t{1} << (k % 64);
    if (lits.has(k, true)) cube[w] |= bit;
    if (lits.has(k, false)) cube[words + w] |= bit;
  }
  return cube;
}

std::vector<std::uint64_t> cube_at(const WriteConditions& wc,
                                   const std::uint64_t* slot) {
  return {slot, slot + 2 * wc.cube_words};
}

void expect_matches_reference(const TemplateBase& base,
                              const std::string& what) {
  const WriteConditions& wc = base.writers;
  bdd::BddManager& mgr = *base.mgr;
  ASSERT_EQ(wc.cube_words,
            (static_cast<std::size_t>(base.instruction_width) + 63) / 64)
      << what;
  ASSERT_EQ(wc.facts.size(), base.templates.size()) << what;
  std::vector<bdd::Ref> quantified(base.templates.size());
  std::map<std::string, std::vector<std::size_t>> writers;
  for (std::size_t i = 0; i < base.templates.size(); ++i) {
    const RTTemplate& t = base.templates[i];
    TemplateFacts facts;
    bdd::Ref c = t.cond;
    for (int v : mgr.support(t.cond)) {
      switch (base.vars[v].kind) {
        case Var::Kind::kInstr:
          continue;
        case Var::Kind::kMode:
          facts.reads_mode = true;
          break;
        default:
          facts.reads_dynamic = true;
          break;
      }
      c = mgr.exists(c, v);
    }
    EXPECT_EQ(wc.facts[i], facts) << what << " template " << i;
    EXPECT_EQ(cube_at(wc, wc.writer_cube(i)), reference_cube(base, c))
        << what << " template " << i;
    quantified[i] = c;
    writers[t.dest].push_back(i);
  }
  ASSERT_EQ(wc.storages.size(), writers.size()) << what;
  std::size_t s = 0;
  for (const auto& [storage, each] : writers) {
    const StorageWriters& sw = wc.storages[s];
    EXPECT_EQ(sw.storage, storage) << what;
    ASSERT_EQ(sw.each.size(), each.size()) << what << " " << storage;
    bdd::Ref any = bdd::kFalse;
    for (std::size_t j = 0; j < each.size(); ++j) {
      const bdd::Ref c = quantified[each[j]];
      EXPECT_EQ(sw.each[j].tmpl, each[j]) << what << " " << storage;
      EXPECT_EQ(sw.each[j].cond, c) << what << " " << storage;
      EXPECT_EQ(sw.each[j].not_cond, mgr.lnot(c)) << what << " " << storage;
      any = mgr.lor(any, c);
    }
    EXPECT_EQ(sw.any, any) << what << " " << storage;
    EXPECT_EQ(sw.not_any, mgr.lnot(any)) << what << " " << storage;
    EXPECT_EQ(cube_at(wc, wc.any_cube(s)), reference_cube(base, any))
        << what << " " << storage;
    ++s;
  }
}

TEST(WriteConditions, BuiltinsMatchPerTemplateReference) {
  for (const models::ModelInfo& info : models::builtin_models()) {
    util::DiagnosticSink diags;
    auto r = core::Record::retarget_model(info.name, {}, diags);
    ASSERT_TRUE(r) << info.name << ": " << diags.str();
    expect_matches_reference(*r->base, std::string(info.name));
  }
}

TEST(WriteConditions, GeneratedModelsMatchPerTemplateReference) {
  // Seeds 178 and 1737 have mode registers and mode-switched loops.
  for (std::uint64_t seed : {0u, 9u, 53u, 178u, 1737u}) {
    const testgen::GeneratedModel m = testgen::generate_model(seed);
    util::DiagnosticSink diags;
    auto r = core::Record::retarget(m.hdl, {}, diags);
    ASSERT_TRUE(r) << m.name << ": " << diags.str();
    expect_matches_reference(*r->base, m.name);
  }
}

/// Equality of two BDDs held by different managers with the same variable
/// order.
bool same_function(const bdd::BddManager& ma, bdd::Ref a,
                   const bdd::BddManager& mb, bdd::Ref b,
                   std::map<std::pair<bdd::Ref, bdd::Ref>, bool>& memo) {
  if (bdd::BddManager::is_const(a) || bdd::BddManager::is_const(b))
    return a == b;
  auto [it, inserted] = memo.emplace(std::make_pair(a, b), false);
  if (!inserted) return it->second;
  it->second = ma.top_var(a) == mb.top_var(b) &&
               same_function(ma, ma.low(a), mb, mb.low(b), memo) &&
               same_function(ma, ma.high(a), mb, mb.high(b), memo);
  return it->second;
}

TEST(WriteConditions, CacheLoadedBaseMatchesCold) {
  const std::string dir = (std::filesystem::temp_directory_path() /
                           "record-rtl-writers-cache")
                              .string();
  std::filesystem::remove_all(dir);
  core::RetargetOptions options;
  options.use_target_cache = true;
  options.cache_dir = dir;
  std::vector<std::pair<std::string, std::string>> sources;
  for (const char* model : {"ref", "bass_boost", "tms320c25"})
    sources.emplace_back(model, std::string(models::model_source(model)));
  const testgen::GeneratedModel gen = testgen::generate_model(178);
  sources.emplace_back(gen.name, gen.hdl);
  for (const auto& [name, hdl] : sources) {
    util::DiagnosticSink diags;
    auto cold = core::Record::retarget(hdl, options, diags);
    auto warm = core::Record::retarget(hdl, options, diags);
    ASSERT_TRUE(cold && warm) << name << ": " << diags.str();
    ASSERT_TRUE(warm->cache_hit) << name;
    expect_matches_reference(*warm->base, name + " (cached)");
    const WriteConditions& a = cold->base->writers;
    const WriteConditions& b = warm->base->writers;
    EXPECT_EQ(a.facts, b.facts) << name;
    EXPECT_EQ(a.cube_words, b.cube_words) << name;
    EXPECT_EQ(a.cubes, b.cubes) << name;
    ASSERT_EQ(a.storages.size(), b.storages.size()) << name;
    const bdd::BddManager& ma = *cold->base->mgr;
    const bdd::BddManager& mb = *warm->base->mgr;
    std::map<std::pair<bdd::Ref, bdd::Ref>, bool> memo;
    auto same = [&](bdd::Ref x, bdd::Ref y) {
      return same_function(ma, x, mb, y, memo);
    };
    for (std::size_t s = 0; s < a.storages.size(); ++s) {
      const StorageWriters& sa = a.storages[s];
      const StorageWriters& sb = b.storages[s];
      EXPECT_EQ(sa.storage, sb.storage) << name;
      EXPECT_TRUE(same(sa.any, sb.any)) << name << " " << sa.storage;
      EXPECT_TRUE(same(sa.not_any, sb.not_any)) << name << " " << sa.storage;
      ASSERT_EQ(sa.each.size(), sb.each.size()) << name << " " << sa.storage;
      for (std::size_t j = 0; j < sa.each.size(); ++j) {
        EXPECT_EQ(sa.each[j].tmpl, sb.each[j].tmpl) << name;
        EXPECT_TRUE(same(sa.each[j].cond, sb.each[j].cond)) << name;
        EXPECT_TRUE(same(sa.each[j].not_cond, sb.each[j].not_cond)) << name;
      }
    }
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace record::rtl
