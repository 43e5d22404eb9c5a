// Table-driven BURS: state tables for tree-pattern labelling (the burg line
// of work — Chase 1987, Proebsting 1992 — applied to the paper's
// processor-specific tree grammars).
//
// The dynamic-programming TreeParser recomputes, at every subject node, the
// cheapest derivation of every non-terminal by re-matching every rule. The
// key observation behind table-driven BURS is that the *behaviour* of a
// subtree under any parent rule is fully captured by a finite signature:
//
//   * its delta-normalised cost vector over non-terminals (costs relative to
//     the subtree minimum) together with the winning rule per non-terminal,
//   * the normalised match cost of every interior pattern position
//     ("subpattern") rooted at its operator, and
//   * for "#const" leaves, which immediate widths the constant fits and
//     which hardwired pattern constants it equals.
//
// Subtrees with equal signatures are interchangeable, so signatures are
// interned as *states* and per-node labelling becomes a single transition
// lookup (operator, child states) -> (state, cost delta). Construction only
// compiles the grammar into rule plans; states and transitions are computed
// on first use during labelling and memoised (thread-safe), so the tables
// hold exactly what the labelled subjects reached. They live as long as the
// tables object: nothing is persisted, so a cache-loaded target starts with
// empty tables exactly like a cold one.
//
// The storage layout is private to tables.cpp:
//
//  * State signatures live in ONE flat interned arena (`state_blocks_`):
//    every state is a fixed-stride row of int32s
//    [cost(nts) | rule(nts) | sub(subs) | meta(3)], block-allocated so row
//    addresses never move. Signature hashing/comparison sweeps one
//    contiguous row instead of chasing three vectors.
//
//  * Transitions live in one hash map keyed by (operator, child states).
//    Each entry carries a dense id assigned at insertion (the map's size at
//    that moment). Ids are private to one tables instance; coverage maps
//    index transitions by them.
//
// Rules carrying side-constraints that a finite state cannot encode — two
// Imm leaves drawing the same instruction field, or two leaves of one
// non-terminal requiring structurally equal operands (x+x shifter patterns)
// — are excluded from the tables. Nodes whose operator owns such a rule are
// labelled through the shared treeparse::match_pattern_cost path instead and
// re-interned, which keeps the engine *exactly* equivalent to the
// interpreter, tie-breaking included.
#pragma once

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "grammar/grammar.h"
#include "treeparse/subject.h"

namespace record::burstab {

inline constexpr int kInf = grammar::kInfCost;

/// Empty: kept only so callers passing `RetargetOptions::tables` compile.
struct TableBuildOptions {};

struct TableStats {
  std::size_t states = 0;
  std::size_t transitions = 0;        // = one past the largest transition id
  std::size_t subpatterns = 0;
  std::size_t table_rules = 0;        // rules encoded in the tables
  std::size_t constrained_rules = 0;  // rules left to the fallback matcher
  std::size_t const_classes = 0;      // distinct #const leaf behaviours seen
};

/// Materialised state signature (the fallback re-intern path; the hot path
/// reads flat rows via StateView).
struct StateData {
  std::vector<int> cost;  // per non-terminal; kInf = not derivable
  std::vector<int> rule;  // winning rule id per non-terminal; -1 = none
  std::vector<int> sub;   // per registered subpattern; kInf = no match
  bool is_const_leaf = false;
  int fit_width_index = -1;  // index into fit widths; -1 = fits none / n.a.
  int const_class = -1;      // index into hardwired values; -1 = none

  friend bool operator==(const StateData&, const StateData&) = default;
};

/// Zero-copy view of one interned state row. The pointers target the flat
/// state arena, whose rows never move once interned — a view stays valid
/// for the lifetime of the tables, with no lock held.
struct StateView {
  const std::int32_t* cost = nullptr;  // [nonterminal_count]
  const std::int32_t* rule = nullptr;  // [nonterminal_count]
  const std::int32_t* sub = nullptr;   // [subpattern_count]
  bool is_const_leaf = false;
  int fit_width_index = -1;
  int const_class = -1;
};

class TargetTables {
 public:
  struct Transition {
    int state = -1;
    int delta = 0;  // node cost base = sum of child bases + delta
    /// Dense insertion-order id within this tables instance: the
    /// coverage-map index of this transition.
    int id = -1;
  };

  /// Compiles the grammar into rule plans; the tables start empty and fill
  /// as subjects are labelled. The grammar may be moved afterwards (pattern
  /// nodes are heap-stable); it must not be destroyed or mutated while the
  /// tables are in use.
  explicit TargetTables(const grammar::TreeGrammar& g,
                        const TableBuildOptions& options = {});

  TargetTables(const TargetTables&) = delete;
  TargetTables& operator=(const TargetTables&) = delete;

  /// State for a "#const" leaf holding `value` (memoised per behaviour
  /// class, not per value).
  [[nodiscard]] int const_leaf_state(std::int64_t value) const;

  /// State + base delta for an operator node over already-labelled children.
  /// Computes and memoises the entry on first use.
  [[nodiscard]] Transition transition(grammar::TermId term,
                                      const std::vector<int>& children) const;

  /// Interns an externally computed signature (fallback path) and returns
  /// its state id. Read-probes under the shared lock before escalating to
  /// the exclusive lock (re-interns of existing states are the common case
  /// under concurrent parsing).
  [[nodiscard]] int intern_state(const StateData& s) const;

  /// View of a state's flat row. Takes the shared lock to resolve the row,
  /// but the returned pointers stay valid lock-free afterwards (rows are
  /// immutable and never move).
  [[nodiscard]] StateView state_view(int id) const;

  /// True if some rule rooted at this terminal carries a side-constraint
  /// (such nodes must be labelled through the fallback matcher).
  [[nodiscard]] bool terminal_has_constrained(grammar::TermId t) const;

  /// One-level structural precheck of a side-constrained rule: the root
  /// arity plus the subject requirements of every non-NonTerm child
  /// position. check() rejects (in O(children)) most rules the recursive
  /// matcher would walk a whole pattern to refute — grammars rich in
  /// constrained rules would otherwise pay that walk per rule per node.
  struct ConstrainedPrecheck {
    int rule = -1;
    std::uint32_t arity = 0;
    struct Req {
      std::uint32_t pos = 0;
      bool want_const = false;     // child must be a #const leaf (Imm/Const)
      grammar::TermId term = -1;   // else: required terminal...
      std::uint32_t term_arity = 0;  // ...with this many children
    };
    std::vector<Req> reqs;

    [[nodiscard]] bool check(const treeparse::SubjectNode& node) const;
  };

  /// Prechecks of the side-constrained rules rooted at `t` whose pattern
  /// root is an operator, in rule order.
  [[nodiscard]] const std::vector<ConstrainedPrecheck>& constrained_prechecks_of(
      grammar::TermId t) const;

  /// Pre-chain-closure (cost, rule) candidates of the table rules at this
  /// operator, relative to the children's base sum. The side-constraint
  /// merge path interleaves these with matched constrained rules by
  /// (cost, rule id) before running chain closure — reproducing the
  /// interpreter's scan order exactly.
  void raw_candidates(grammar::TermId term, const std::vector<int>& children,
                      std::vector<int>& cost, std::vector<int>& rule) const;

  /// All registered subpatterns rooted at `t` (for the fallback re-intern).
  [[nodiscard]] const std::vector<int>& subpatterns_of_terminal(
      grammar::TermId t) const;

  [[nodiscard]] const grammar::PatNode* subpattern(int index) const;

  /// Index into the registered immediate widths of the smallest width the
  /// value fits (-1 = fits none); index of the hardwired pattern constant
  /// equal to the value (-1 = none). Used for #const signatures.
  [[nodiscard]] int fit_index_of(std::int64_t value) const;
  [[nodiscard]] int const_class_index(std::int64_t value) const;

  [[nodiscard]] int nonterminal_count() const { return nt_count_; }
  [[nodiscard]] int subpattern_count() const {
    return static_cast<int>(subpatterns_.size());
  }

  [[nodiscard]] TableStats stats() const;

  /// Process-unique serial of this tables instance, never reused. State and
  /// transition ids mean something only within one instance, so a coverage
  /// map uses this to tell the instance whose ids it counts from others.
  [[nodiscard]] std::uint64_t instance() const { return instance_; }

 private:
  struct TransKey {
    grammar::TermId term;
    std::vector<int> children;
    friend bool operator==(const TransKey&, const TransKey&) = default;
  };
  /// Allocation-free lookups: find() with a view over the caller's child
  /// array instead of materialising a TransKey (C++20 transparent hashing).
  struct TransKeyView {
    grammar::TermId term;
    const std::vector<int>* children;
  };
  struct TransKeyHash {
    using is_transparent = void;
    static std::size_t mix(grammar::TermId term,
                           const std::vector<int>& children) {
      std::size_t h = 1469598103934665603ull ^ static_cast<std::size_t>(term);
      for (int c : children)
        h = (h ^ static_cast<std::size_t>(c)) * 1099511628211ull;
      return h;
    }
    std::size_t operator()(const TransKey& k) const {
      return mix(k.term, k.children);
    }
    std::size_t operator()(const TransKeyView& k) const {
      return mix(k.term, *k.children);
    }
  };
  struct TransKeyEq {
    using is_transparent = void;
    bool operator()(const TransKey& a, const TransKey& b) const {
      return a == b;
    }
    bool operator()(const TransKeyView& a, const TransKey& b) const {
      return a.term == b.term && *a.children == b.children;
    }
    bool operator()(const TransKey& a, const TransKeyView& b) const {
      return a.term == b.term && a.children == *b.children;
    }
  };
  using TransMap =
      std::unordered_map<TransKey, Transition, TransKeyHash, TransKeyEq>;
  /// Interning key: a pointer to a full stride_-wide signature row, either
  /// inside the arena (stored keys) or a caller's scratch row (probes).
  struct RowKey {
    const std::int32_t* row;
  };
  struct RowHash {
    const TargetTables* t;
    std::size_t operator()(const RowKey& k) const;
  };
  struct RowEq {
    const TargetTables* t;
    bool operator()(const RowKey& a, const RowKey& b) const;
  };

  /// One table rule prepared for state computation.
  struct RulePlan {
    int id = -1;
    grammar::NtId lhs = -1;
    int cost = 0;
    const grammar::PatNode* pattern = nullptr;
  };
  struct ChainPlan {
    int id = -1;
    grammar::NtId lhs = -1;
    int cost = 0;
  };

  void prepare(const grammar::TreeGrammar& g);
  [[nodiscard]] static bool pattern_is_constrained(
      const grammar::PatNode& pat);
  [[nodiscard]] static std::string pattern_key(const grammar::PatNode& p);

  [[nodiscard]] StateView view_of_row(const std::int32_t* row) const;
  [[nodiscard]] const std::int32_t* state_row_locked(int id) const;
  void fill_row_from_state(const StateData& s, std::int32_t* row) const;

  /// Match cost of pattern child `p` against child state row `s`;
  /// kInf = fail.
  [[nodiscard]] int rel_match_locked(const grammar::PatNode& p,
                                     const std::int32_t* s) const;
  [[nodiscard]] int intern_row_locked(const std::int32_t* row) const;
  [[nodiscard]] Transition compute_transition_locked(
      grammar::TermId term, const std::vector<int>& children) const;
  [[nodiscard]] int compute_const_state_locked(int fit_index,
                                               int const_class) const;

  // --- immutable after construction ---------------------------------------
  std::uint64_t instance_ = 0;
  int nt_count_ = 0;
  int stride_ = 0;  // ints per state row: 2 * nts + subpatterns + 3 meta
  grammar::TermId const_term_ = -1;
  std::vector<std::vector<RulePlan>> rules_by_terminal_;   // [term]
  std::vector<std::vector<ConstrainedPrecheck>>
      constrained_precheck_;                               // [term]
  std::vector<std::vector<RulePlan>> const_root_rules_;    // size 1: #const
  std::vector<std::vector<ChainPlan>> chains_from_;        // [nt]
  std::size_t rule_count_ = 0;
  std::size_t constrained_count_ = 0;  // side-constrained rules
  std::vector<bool> terminal_constrained_;                 // [term]
  std::vector<const grammar::PatNode*> subpatterns_;
  std::unordered_map<const grammar::PatNode*, int> sub_index_;
  std::vector<std::vector<int>> subs_by_terminal_;         // [term]
  std::vector<int> fit_widths_;           // sorted distinct Imm widths
  std::vector<std::int64_t> const_values_;  // sorted distinct Const values
  std::unordered_map<std::int64_t, int> const_class_of_;

  // --- mutable, guarded by mu_ ---------------------------------------------
  mutable std::shared_mutex mu_;
  /// Flat state arena: fixed-capacity blocks of stride_-wide rows, so row
  /// addresses are stable across growth (StateViews hold raw row pointers).
  static constexpr int kStatesPerBlock = 256;
  mutable std::vector<std::unique_ptr<std::int32_t[]>> state_blocks_;
  mutable int state_count_ = 0;
  mutable std::unordered_map<RowKey, int, RowHash, RowEq> state_index_;
  mutable TransMap trans_;
  mutable std::unordered_map<std::int64_t, int> const_state_by_pair_;
  mutable std::vector<std::int32_t> scratch_row_;  // intern staging, under mu_
};

}  // namespace record::burstab
