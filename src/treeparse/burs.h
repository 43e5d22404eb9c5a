// Bottom-up rewrite-system (BURS) tree parsing with dynamic programming —
// the algorithmic core of iburg (paper section 3.2).
//
// label():  one bottom-up pass computes, for every node and every
//           non-terminal, the cheapest derivation cost and the rule
//           achieving it, with chain-rule closure at each node. Linear in
//           the number of nodes with a grammar-dependent constant, exactly
//           as the paper reports.
// reduce(): walks the optimal derivation from (root, START), yielding a
//           derivation tree of rule applications; Imm-leaf matches record
//           the concrete constant for later instruction encoding.
//
// The selection hot path is allocation-free in steady state: label results
// live in one flat per-(node, non-terminal) array that callers reuse via
// label_into(), and derivations are bump-allocated from a caller-owned
// DerivationArena (child and immediate lists included), so a reused
// selector performs no per-node heap traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "grammar/grammar.h"
#include "obs/coverage.h"
#include "treeparse/arena.h"
#include "treeparse/subject.h"

namespace record::treeparse {

struct LabelEntry {
  int cost = grammar::kInfCost;
  int rule = -1;
};

/// Labelling result over one subject tree, stored as a single flat
/// nodes x non-terminals array (one allocation, reusable across trees via
/// reset(): shrinking never reallocates).
struct LabelResult {
  bool ok = false;    // root derives from START
  int root_cost = grammar::kInfCost;
  int nt_count = 0;
  std::vector<LabelEntry> flat;  // [node id * nt_count + non-terminal id]

  void reset(std::size_t nodes, int nts) {
    ok = false;
    root_cost = grammar::kInfCost;
    nt_count = nts;
    flat.assign(nodes * static_cast<std::size_t>(nts), LabelEntry{});
  }
  [[nodiscard]] LabelEntry* row(std::size_t node) {
    return flat.data() + node * static_cast<std::size_t>(nt_count);
  }
  [[nodiscard]] const LabelEntry* row(std::size_t node) const {
    return flat.data() + node * static_cast<std::size_t>(nt_count);
  }
  [[nodiscard]] const LabelEntry& at(std::size_t node, std::size_t nt) const {
    return flat[node * static_cast<std::size_t>(nt_count) + nt];
  }
  [[nodiscard]] std::size_t node_count() const {
    return nt_count == 0 ? 0 : flat.size() / static_cast<std::size_t>(nt_count);
  }
};

/// One matched Imm pattern leaf: the instruction-word field and the constant
/// that must be encoded into it. The bit-position list is borrowed from the
/// matched pattern (or RT template), which outlives every consumer of a
/// binding — selection results already point into the same target. Keeping
/// the binding trivially copyable lets derivations live in the arena.
struct ImmBinding {
  const std::vector<int>* field_bits = nullptr;  // instruction-word positions
  std::int64_t value = 0;

  [[nodiscard]] const std::vector<int>& bits() const { return *field_bits; }

  /// Calls visit(k, bit) for each instruction-word bit I[k] (BDD variable
  /// k) the binding fixes: field position j carries bit j of the value.
  /// Positions outside [0, instruction_width) are skipped.
  template <typename Visit>
  void for_each_literal(int instruction_width, Visit&& visit) const {
    for (std::size_t j = 0; j < field_bits->size(); ++j) {
      const int var = (*field_bits)[j];
      if (var < 0 || var >= instruction_width) continue;
      visit(var, ((static_cast<std::uint64_t>(value) >> j) & 1u) != 0);
    }
  }
};

/// Non-owning array view into arena storage (children / immediate lists of
/// a Derivation). Mutable through the view: flatten() reorders children in
/// place.
template <typename T>
struct ArenaSpan {
  T* data = nullptr;
  std::uint32_t count = 0;

  [[nodiscard]] T* begin() const { return data; }
  [[nodiscard]] T* end() const { return data + count; }
  [[nodiscard]] std::size_t size() const { return count; }
  [[nodiscard]] bool empty() const { return count == 0; }
  [[nodiscard]] T& operator[](std::size_t i) const { return data[i]; }
};

/// A node of the optimal derivation. Arena-allocated (trivially
/// destructible): nodes and their child/immediate arrays are reclaimed by
/// DerivationArena::reset(), never destroyed.
struct Derivation {
  int rule = -1;
  std::uint32_t apps = 1;  // rule applications in this subtree (memoised)
  const SubjectNode* node = nullptr;
  ArenaSpan<Derivation*> children;  // NT leaves, in preorder
  ArenaSpan<ImmBinding> imms;

  /// Total number of rule applications in this derivation.
  [[nodiscard]] std::size_t application_count() const { return apps; }
};

/// Non-owning callable view used by the pattern matcher to read the closed
/// (chain-complete) derivation cost of a non-terminal at a subject node.
/// Returns grammar::kInfCost when the non-terminal is not derivable. Both the
/// dynamic-programming TreeParser and the table-driven burstab engine feed
/// their own cost stores through this interface so that side-constrained
/// rules are matched by one shared code path.
class CostLookup {
 public:
  template <typename F>
  CostLookup(const F& f)  // NOLINT(google-explicit-constructor)
      : ctx_(&f), fn_([](const void* ctx, const SubjectNode& n,
                         grammar::NtId nt) {
          return (*static_cast<const F*>(ctx))(n, nt);
        }) {}

  int operator()(const SubjectNode& n, grammar::NtId nt) const {
    return fn_(ctx_, n, nt);
  }

 private:
  const void* ctx_;
  int (*fn_)(const void*, const SubjectNode&, grammar::NtId);
};

/// Structural equality of subject subtrees (terminals and constants).
[[nodiscard]] bool subjects_equal(const SubjectNode& a, const SubjectNode& b);

/// Cost of matching `pat` at `node` given closed non-terminal costs;
/// nullopt if no structural match. Consistency side-constraints:
///  * `imm_fields`: two Imm leaves drawing from the same instruction
///    field must bind the same constant,
///  * `nt_binds`: two leaves of the same non-terminal are one physical
///    register read, so their subject subtrees must be identical
///    (the x+x patterns derived from shifters).
/// Callers reuse the scratch vectors across rules (cleared on entry by the
/// labelling loops, not here).
[[nodiscard]] std::optional<int> match_pattern_cost(
    const grammar::PatNode& pat, const SubjectNode& node,
    const CostLookup& costs, std::vector<ImmBinding>& imm_fields,
    std::vector<std::pair<grammar::NtId, const SubjectNode*>>& nt_binds);

class TreeParser {
 public:
  explicit TreeParser(const grammar::TreeGrammar& g);

  /// Dynamic-programming labelling pass into a caller-owned (reusable)
  /// result.
  void label_into(const SubjectTree& tree, LabelResult& out) const;

  /// Convenience form allocating a fresh result.
  [[nodiscard]] LabelResult label(const SubjectTree& tree) const {
    LabelResult r;
    label_into(tree, r);
    return r;
  }

  /// Extracts the optimal derivation of the tree root from START into
  /// `arena`. Requires a successful label() result; the returned tree lives
  /// until the arena is reset.
  [[nodiscard]] Derivation* reduce(const SubjectTree& tree,
                                   const LabelResult& result,
                                   DerivationArena& arena) const;

  /// Convenience: label + reduce; nullptr if the tree has no derivation.
  [[nodiscard]] Derivation* parse(const SubjectTree& tree,
                                  DerivationArena& arena) const;

  [[nodiscard]] const grammar::TreeGrammar& grammar() const { return g_; }

  /// Attach a coverage map (null detaches): label_into then records every
  /// rule that wins some (node, non-terminal) cell. The interpreter has no
  /// interned states or table slots, so only rule coverage is fed here —
  /// which is exactly what makes interpreter-vs-tables coverage agreement
  /// testable.
  void set_coverage(obs::CoverageMap* map) { coverage_ = map; }

  /// True if `value` can be encoded in an immediate field of `width` bits
  /// (unsigned or two's-complement signed).
  [[nodiscard]] static bool immediate_fits(std::int64_t value, int width);

 private:
  void reduce_pattern(const grammar::PatNode& pat, const SubjectNode& node,
                      const LabelResult& result, DerivationArena& arena,
                      Derivation& out) const;
  [[nodiscard]] Derivation* reduce_nt(const SubjectNode& node,
                                      grammar::NtId nt,
                                      const LabelResult& result,
                                      DerivationArena& arena) const;

  const grammar::TreeGrammar& g_;
  /// Per rule: number of NonTerm leaves / Imm leaves in the pattern —
  /// the exact child/immediate array sizes reduce() bump-allocates.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> rule_shape_;
  obs::CoverageMap* coverage_ = nullptr;
};

}  // namespace record::treeparse
