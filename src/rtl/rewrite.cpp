#include "rtl/rewrite.h"

#include <unordered_map>

namespace record::rtl {

RWPatPtr RWPat::clone() const {
  auto out = std::make_unique<RWPat>();
  out->kind = kind;
  out->var = var;
  out->op = op;
  out->custom = custom;
  out->value = value;
  out->children.reserve(children.size());
  for (const RWPatPtr& c : children) out->children.push_back(c->clone());
  return out;
}

RWPatPtr pat_var(std::string name) {
  auto p = std::make_unique<RWPat>();
  p->kind = RWPat::Kind::Var;
  p->var = std::move(name);
  return p;
}

RWPatPtr pat_const(std::int64_t value) {
  auto p = std::make_unique<RWPat>();
  p->kind = RWPat::Kind::Const;
  p->value = value;
  return p;
}

RWPatPtr pat_op(hdl::OpKind op, std::vector<RWPatPtr> children) {
  auto p = std::make_unique<RWPat>();
  p->kind = RWPat::Kind::Op;
  p->op = op;
  p->children = std::move(children);
  return p;
}

void RewriteLibrary::add(std::string name, RWPatPtr lhs, RWPatPtr rhs) {
  rules_.push_back(RewriteRule{std::move(name), std::move(lhs), std::move(rhs)});
}

RewriteLibrary RewriteLibrary::standard() {
  using hdl::OpKind;
  RewriteLibrary lib;
  auto v = [](const char* n) { return pat_var(n); };

  // A shifter implements x + x.
  {
    std::vector<RWPatPtr> l;
    l.push_back(v("x"));
    l.push_back(pat_const(1));
    std::vector<RWPatPtr> r;
    r.push_back(v("x"));
    r.push_back(v("x"));
    lib.add("shl1-to-add", pat_op(OpKind::Shl, std::move(l)),
            pat_op(OpKind::Add, std::move(r)));
  }
  // Neutral elements: the adder/subtractor/multiplier doubles as a mover.
  {
    std::vector<RWPatPtr> l;
    l.push_back(v("x"));
    l.push_back(pat_const(0));
    lib.add("add0-elim", pat_op(OpKind::Add, std::move(l)), v("x"));
  }
  {
    std::vector<RWPatPtr> l;
    l.push_back(v("x"));
    l.push_back(pat_const(0));
    lib.add("sub0-elim", pat_op(OpKind::Sub, std::move(l)), v("x"));
  }
  {
    std::vector<RWPatPtr> l;
    l.push_back(v("x"));
    l.push_back(pat_const(1));
    lib.add("mul1-elim", pat_op(OpKind::Mul, std::move(l)), v("x"));
  }
  {
    std::vector<RWPatPtr> l;
    l.push_back(v("x"));
    l.push_back(pat_const(0));
    lib.add("or0-elim", pat_op(OpKind::Or, std::move(l)), v("x"));
  }
  {
    std::vector<RWPatPtr> l;
    l.push_back(v("x"));
    l.push_back(pat_const(0));
    lib.add("xor0-elim", pat_op(OpKind::Xor, std::move(l)), v("x"));
  }
  // add(x, neg(y)) <-> sub(x, y): both shapes map to whichever unit exists.
  {
    std::vector<RWPatPtr> inner;
    inner.push_back(v("y"));
    std::vector<RWPatPtr> l;
    l.push_back(v("x"));
    l.push_back(pat_op(OpKind::Neg, std::move(inner)));
    std::vector<RWPatPtr> r;
    r.push_back(v("x"));
    r.push_back(v("y"));
    lib.add("addneg-to-sub", pat_op(OpKind::Add, std::move(l)),
            pat_op(OpKind::Sub, std::move(r)));
  }
  {
    std::vector<RWPatPtr> l;
    l.push_back(v("x"));
    l.push_back(v("y"));
    std::vector<RWPatPtr> inner;
    inner.push_back(v("y"));
    std::vector<RWPatPtr> r;
    r.push_back(v("x"));
    r.push_back(pat_op(OpKind::Neg, std::move(inner)));
    lib.add("sub-to-addneg", pat_op(OpKind::Sub, std::move(l)),
            pat_op(OpKind::Add, std::move(r)));
  }
  // neg(neg(x)) -> x.
  {
    std::vector<RWPatPtr> inner;
    inner.push_back(v("x"));
    std::vector<RWPatPtr> l;
    l.push_back(pat_op(OpKind::Neg, std::move(inner)));
    lib.add("negneg-elim", pat_op(OpKind::Neg, std::move(l)), v("x"));
  }
  return lib;
}

namespace {

using Bindings = std::unordered_map<std::string, const RTNode*>;

bool match(const RWPat& pat, const RTNode& node, Bindings& bind) {
  switch (pat.kind) {
    case RWPat::Kind::Var: {
      auto it = bind.find(pat.var);
      if (it != bind.end()) return equal(*it->second, node);
      bind.emplace(pat.var, &node);
      return true;
    }
    case RWPat::Kind::Const:
      return node.kind == RTNode::Kind::HardConst && node.value == pat.value;
    case RWPat::Kind::Op: {
      if (node.kind != RTNode::Kind::Op) return false;
      if (node.op.kind != pat.op) return false;
      if (pat.op == hdl::OpKind::Custom && node.op.custom != pat.custom)
        return false;
      if (node.children.size() != pat.children.size()) return false;
      for (std::size_t i = 0; i < pat.children.size(); ++i)
        if (!match(*pat.children[i], *node.children[i], bind)) return false;
      return true;
    }
  }
  return false;
}

RTNodePtr build(const RWPat& pat, const Bindings& bind, int width) {
  switch (pat.kind) {
    case RWPat::Kind::Var: {
      auto it = bind.find(pat.var);
      return it != bind.end() ? it->second->clone()
                              : make_hard_const(0, width);
    }
    case RWPat::Kind::Const:
      return make_hard_const(pat.value, width);
    case RWPat::Kind::Op: {
      std::vector<RTNodePtr> kids;
      kids.reserve(pat.children.size());
      for (const RWPatPtr& c : pat.children)
        kids.push_back(build(*c, bind, width));
      OpSig sig{pat.op, pat.custom, width};
      return make_op(std::move(sig), std::move(kids));
    }
  }
  return make_hard_const(0, width);
}

bool contains(const RTNode& tree, const RTNode* target) {
  if (&tree == target) return true;
  for (const RTNodePtr& c : tree.children)
    if (contains(*c, target)) return true;
  return false;
}

/// Rebuilds `tree` with the node at `target` replaced by `replacement`.
RTNodePtr rebuild(const RTNode& tree, const RTNode* target,
                  RTNodePtr replacement) {
  if (&tree == target) return replacement;
  RTNodePtr out = std::make_unique<RTNode>();
  out->kind = tree.kind;
  out->op = tree.op;
  out->name = tree.name;
  out->width = tree.width;
  out->value = tree.value;
  out->imm_bits = tree.imm_bits;
  out->children.reserve(tree.children.size());
  for (const RTNodePtr& c : tree.children) {
    // Exactly one child subtree can contain `target` (node identity);
    // move the replacement only into that branch and clone the rest.
    if (contains(*c, target))
      out->children.push_back(rebuild(*c, target, std::move(replacement)));
    else
      out->children.push_back(c->clone());
  }
  return out;
}

void collect_nodes(const RTNode& tree, std::vector<const RTNode*>& out) {
  out.push_back(&tree);
  for (const RTNodePtr& c : tree.children) collect_nodes(*c, out);
}

}  // namespace

std::vector<const RTNode*> preorder_nodes(const RTNode& tree) {
  std::vector<const RTNode*> positions;
  collect_nodes(tree, positions);
  return positions;
}

std::vector<RTNodePtr> apply_rule(const RTNode& tree,
                                  const std::vector<const RTNode*>& positions,
                                  const RewriteRule& rule) {
  std::vector<RTNodePtr> variants;
  for (const RTNode* pos : positions) {
    Bindings bind;
    if (!match(*rule.lhs, *pos, bind)) continue;
    RTNodePtr replacement = build(*rule.rhs, bind, pos->width);
    variants.push_back(rebuild(tree, pos, std::move(replacement)));
  }
  return variants;
}

}  // namespace record::rtl
