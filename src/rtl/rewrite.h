// Algebraic rewrite rules for template-base extension (paper section 3).
//
// "Optionally, additional templates are also created based on
//  application-specific rewrite rules retrieved from an external
//  transformation library."
//
// A rule is a pair of tree patterns with variables. When a rule's LHS
// matches a subtree of an extracted RT template, a variant template with the
// RHS shape is added: the machine instruction stays the same, but source
// expression trees of a different algebraic shape can now be covered by it.
// Example: rule `shl(x, 1) => add(x, x)` lets a hardware shifter implement
// the source expression `x + x`.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hdl/ast.h"
#include "rtl/template.h"

namespace record::rtl {

struct RWPat;
using RWPatPtr = std::unique_ptr<RWPat>;

/// Rewrite pattern node. `Var` binds/references a subtree; `Op` matches an
/// operator node of the given kind (width-agnostic); `Const` matches a
/// hardwired constant of the given value.
struct RWPat {
  enum class Kind : std::uint8_t { Var, Op, Const };

  Kind kind = Kind::Var;
  std::string var;                     // Var
  hdl::OpKind op = hdl::OpKind::Add;   // Op
  std::string custom;                  // Op with OpKind::Custom
  std::int64_t value = 0;              // Const
  std::vector<RWPatPtr> children;

  [[nodiscard]] RWPatPtr clone() const;
};

[[nodiscard]] RWPatPtr pat_var(std::string name);
[[nodiscard]] RWPatPtr pat_const(std::int64_t value);
[[nodiscard]] RWPatPtr pat_op(hdl::OpKind op, std::vector<RWPatPtr> children);

struct RewriteRule {
  std::string name;
  RWPatPtr lhs;
  RWPatPtr rhs;
};

/// An ordered collection of rewrite rules ("external transformation
/// library"). Users may build their own or start from `standard()`.
class RewriteLibrary {
 public:
  void add(std::string name, RWPatPtr lhs, RWPatPtr rhs);

  [[nodiscard]] const std::vector<RewriteRule>& rules() const {
    return rules_;
  }
  [[nodiscard]] std::size_t size() const { return rules_.size(); }

  /// The default algebraic library: shift/add equivalences, neutral-element
  /// eliminations, sub/add-neg dualities, double-negation.
  [[nodiscard]] static RewriteLibrary standard();

 private:
  std::vector<RewriteRule> rules_;
};

/// The nodes of `tree` in preorder: the positions apply_rule tries, in the
/// order its variants come out.
[[nodiscard]] std::vector<const RTNode*> preorder_nodes(const RTNode& tree);

/// All variant trees obtained by applying `rule` at every position of
/// `tree` (one application per variant). `positions` is
/// preorder_nodes(tree), collected once so that a whole library is applied
/// to one tree with one walk.
[[nodiscard]] std::vector<RTNodePtr> apply_rule(
    const RTNode& tree, const std::vector<const RTNode*>& positions,
    const RewriteRule& rule);

}  // namespace record::rtl
