#include "rtl/extend.h"

#include "util/strings.h"

namespace record::rtl {

namespace {

/// Generates every tree obtainable by swapping the children of commutative
/// binary operator nodes, excluding the original tree, up to `cap` results.
void commute_variants(const RTNode& tree, std::size_t cap,
                      std::vector<RTNodePtr>& out, bool& capped) {
  // Work queue of partially-explored variants. Each step picks the next
  // commutative node (in preorder) and branches on swap / no-swap.
  std::vector<const RTNode*> commutative_nodes;
  std::vector<const RTNode*> stack{&tree};
  while (!stack.empty()) {
    const RTNode* n = stack.back();
    stack.pop_back();
    if (n->kind == RTNode::Kind::Op && n->children.size() == 2 &&
        n->op.kind != hdl::OpKind::Custom &&
        hdl::is_commutative(n->op.kind) &&
        !equal(*n->children[0], *n->children[1]))
      commutative_nodes.push_back(n);
    for (const RTNodePtr& c : n->children) stack.push_back(c.get());
  }
  if (commutative_nodes.empty()) return;

  std::size_t combos = std::size_t{1} << std::min<std::size_t>(
                           commutative_nodes.size(), 16);
  for (std::size_t mask = 1; mask < combos; ++mask) {
    if (out.size() >= cap) {
      capped = true;
      return;
    }
    // Clone the tree, swapping the nodes selected by `mask`.
    struct Cloner {
      const std::vector<const RTNode*>& nodes;
      std::size_t mask;
      RTNodePtr run(const RTNode& n) {
        RTNodePtr o = std::make_unique<RTNode>();
        o->kind = n.kind;
        o->op = n.op;
        o->name = n.name;
        o->width = n.width;
        o->value = n.value;
        o->imm_bits = n.imm_bits;
        bool swap = false;
        for (std::size_t i = 0; i < nodes.size(); ++i)
          if (nodes[i] == &n && (mask & (std::size_t{1} << i))) swap = true;
        o->children.reserve(n.children.size());
        for (const RTNodePtr& c : n.children) o->children.push_back(run(*c));
        if (swap && o->children.size() == 2)
          std::swap(o->children[0], o->children[1]);
        return o;
      }
    };
    Cloner cloner{commutative_nodes, mask};
    out.push_back(cloner.run(tree));
  }
}

}  // namespace

ExtendStats extend_template_base(TemplateBase& base,
                                 const ExtendOptions& options) {
  ExtendStats stats;

  if (options.commutativity) {
    std::size_t original_count = base.templates.size();
    for (std::size_t i = 0; i < original_count; ++i) {
      std::vector<RTNodePtr> variants;
      bool capped = false;
      commute_variants(*base.templates[i].value,
                       options.max_variants_per_template, variants, capped);
      if (capped) ++stats.variant_capped;
      for (RTNodePtr& v : variants) {
        RTTemplate t = base.templates[i].clone_shallow_meta();
        t.addr = base.templates[i].addr ? base.templates[i].addr->clone()
                                        : nullptr;
        t.value = std::move(v);
        t.provenance = util::fmt("commute({})", base.templates[i].id);
        if (base.add_unique(std::move(t))) ++stats.commutative_added;
      }
    }
  }

  if (options.rewrites) {
    for (int pass = 0; pass < options.rewrite_iterations; ++pass) {
      std::size_t count_before_pass = base.templates.size();
      std::size_t added_this_pass = 0;
      for (std::size_t i = 0; i < count_before_pass; ++i) {
        const std::vector<const RTNode*> positions =
            preorder_nodes(*base.templates[i].value);
        for (const RewriteRule& rule : options.rewrites->rules()) {
          std::vector<RTNodePtr> variants =
              apply_rule(*base.templates[i].value, positions, rule);
          for (RTNodePtr& v : variants) {
            RTTemplate t = base.templates[i].clone_shallow_meta();
            t.addr = base.templates[i].addr
                         ? base.templates[i].addr->clone()
                         : nullptr;
            t.value = std::move(v);
            t.provenance =
                util::fmt("rewrite:{}({})", rule.name, base.templates[i].id);
            if (base.add_unique(std::move(t))) {
              ++stats.rewrite_added;
              ++added_this_pass;
            }
          }
        }
      }
      if (added_this_pass == 0) break;
    }
  }

  base.writers = write_conditions(base);
  return stats;
}

}  // namespace record::rtl
