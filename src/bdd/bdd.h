// Reduced Ordered Binary Decision Diagrams.
//
// The paper (section 2, "Analysis of control signals") models RT-template
// execution conditions as BDDs whose variables are instruction-word bits and
// mode-register bits. This is a from-scratch ROBDD package providing exactly
// what instruction-set extraction and code compaction need:
//
//   * canonical node table (unique table) with creation-order variable order,
//   * ite/and/or/xor/not with a bounded computed table (see below),
//   * restrict (cofactor) and compose (substitute a function for a variable),
//   * satisfiability, implication, model extraction and model counting,
//   * implied literals (the cube every satisfying assignment agrees on),
//   * support computation and a stable textual dump for tests.
//
// There is no garbage collection: condition BDDs in this domain are small
// (tens of variables) and a manager lives exactly as long as the retarget
// result owning it — compile jobs add a few nodes per immediate conjunction,
// and all of it is reclaimed when the target is dropped (e.g. evicted from
// the service::TargetRegistry LRU and released by its last job). Nodes are
// never collected while the manager lives.
//
// The computed table (ite memo) is the classic bounded, lossy design: a
// fixed power-of-two array of slots, direct-mapped by a 64-bit mix of
// (f, g, h), where a new result overwrites whatever held its slot. Its
// memory is constant per manager however long a hot target serves. Losing
// an entry only costs a recomputation: the recursion rebuilds the result
// from the unique table, where every node it needs already exists, so a
// miss creates no node and Ref numbering is the same as with an unbounded
// memo.
//
// Thread safety: every operation that touches the node table — construction
// of new BDDs (ite, literal, restrict, compose, exists, constrain and the
// inline connectives), queries and traversals (eval, any_sat, sat_count,
// implied, support, to_string, to_sop, top_var/low/high, node_count) — is
// internally serialised by a per-manager mutex, so a manager owned by a shared
// rtl::TemplateBase may be used by concurrent core::Compiler::compile jobs.
// Variable *registration* is the exception: new_var is not synchronised
// against var_name/var_count readers. Variables are registered only by
// instruction-set extraction and the target cache load, both before the
// manager is shared; compile jobs register none.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace record::bdd {

/// Handle to a BDD node owned by a BddManager. Value 0 is the constant FALSE,
/// value 1 the constant TRUE. Handles are only meaningful together with the
/// manager that produced them.
using Ref = std::uint32_t;

inline constexpr Ref kFalse = 0;
inline constexpr Ref kTrue = 1;

/// A (partial) variable assignment: variable index -> value.
using Assignment = std::vector<std::pair<int, bool>>;

/// A set of literals as two bitsets over a manager's variables: variable v
/// is bit v % 64 of word v / 64, in `pos` for the literal v and in `neg`
/// for !v.
struct Literals {
  std::vector<std::uint64_t> pos;
  std::vector<std::uint64_t> neg;

  [[nodiscard]] bool has(int v, bool positive) const {
    const std::vector<std::uint64_t>& set = positive ? pos : neg;
    return (set[static_cast<std::size_t>(v) / 64] >> (v % 64) & 1u) != 0;
  }
};

class BddManager {
 public:
  BddManager();

  /// log2 of the computed-table slot count (16 bytes a slot, 128 KiB per
  /// manager), chosen by measurement on the perfbench workloads: 2^12
  /// slots thrash (about 25% fewer compiles/s, half the shared-target
  /// throughput), and 2^14 buys no throughput for more peak RSS.
  static constexpr int kComputedTableBits = 13;

  BddManager(const BddManager&) = delete;
  BddManager& operator=(const BddManager&) = delete;
  BddManager(BddManager&&) = delete;
  BddManager& operator=(BddManager&&) = delete;

  // --- variables ---------------------------------------------------------

  /// Registers a new Boolean variable; returns its index. Variables are
  /// ordered by registration order (smaller index = closer to the root).
  int new_var(std::string name);

  [[nodiscard]] int var_count() const { return static_cast<int>(names_.size()); }
  [[nodiscard]] const std::string& var_name(int v) const { return names_.at(static_cast<std::size_t>(v)); }

  // --- leaf/literal constructors -----------------------------------------

  [[nodiscard]] static Ref zero() { return kFalse; }
  [[nodiscard]] static Ref one() { return kTrue; }
  [[nodiscard]] Ref literal(int v, bool positive);
  [[nodiscard]] Ref var(int v) { return literal(v, true); }
  [[nodiscard]] Ref nvar(int v) { return literal(v, false); }
  /// The function `v ? hi : lo`. Built as one node when v precedes the top
  /// variables of lo and hi, as when a stored BDD is rebuilt bottom-up;
  /// through ite otherwise.
  [[nodiscard]] Ref make(int v, Ref lo, Ref hi);

  // --- Boolean connectives ------------------------------------------------

  [[nodiscard]] Ref ite(Ref f, Ref g, Ref h);
  [[nodiscard]] Ref land(Ref f, Ref g) { return ite(f, g, kFalse); }
  [[nodiscard]] Ref lor(Ref f, Ref g) { return ite(f, kTrue, g); }
  [[nodiscard]] Ref lnot(Ref f) { return ite(f, kFalse, kTrue); }
  [[nodiscard]] Ref lxor(Ref f, Ref g) { return ite(f, lnot(g), g); }
  [[nodiscard]] Ref limp(Ref f, Ref g) { return ite(f, g, kTrue); }

  // --- structural operations ----------------------------------------------

  /// Cofactor: f with variable v fixed to `value`.
  [[nodiscard]] Ref restrict(Ref f, int v, bool value);

  /// Substitution: f with variable v replaced by function g.
  [[nodiscard]] Ref compose(Ref f, int v, Ref g);

  /// Existential quantification over one variable.
  [[nodiscard]] Ref exists(Ref f, int v);

  /// Greedy constraint: conjoins `terms` into f in order, skipping each
  /// term that would make the result FALSE. Adds the number of terms
  /// conjoined to `*taken`. One lock covers the whole pass.
  [[nodiscard]] Ref constrain(Ref f, const std::vector<Ref>& terms,
                              std::size_t* taken);

  // --- queries -------------------------------------------------------------

  [[nodiscard]] static bool is_const(Ref f) { return f <= kTrue; }
  [[nodiscard]] bool is_sat(Ref f) const { return f != kFalse; }
  [[nodiscard]] bool is_tautology(Ref f) const { return f == kTrue; }
  [[nodiscard]] bool implies(Ref f, Ref g) { return limp(f, g) == kTrue; }
  [[nodiscard]] bool disjoint(Ref f, Ref g) { return land(f, g) == kFalse; }

  /// Evaluate under a complete assignment (missing variables default false).
  [[nodiscard]] bool eval(Ref f, const Assignment& a) const;

  /// One satisfying partial assignment (mentions only variables on the
  /// extracted path); nullopt iff f is FALSE.
  [[nodiscard]] std::optional<Assignment> any_sat(Ref f) const;

  /// Number of satisfying assignments over `nvars` variables
  /// (nvars >= highest variable in f's support + 1).
  [[nodiscard]] std::uint64_t sat_count(Ref f, int nvars) const;

  /// The literals f implies: v is in the result with phase b iff
  /// restrict(f, v, !b) is FALSE. TRUE implies none; FALSE implies every
  /// literal of every variable. One walk of f under one lock; creates no
  /// node.
  [[nodiscard]] Literals implied(Ref f) const;

  /// Sorted list of variables f depends on.
  [[nodiscard]] std::vector<int> support(Ref f) const;

  /// Number of live nodes including the two constants.
  [[nodiscard]] std::size_t node_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return nodes_.size();
  }

  /// Stable textual form, e.g. "(b1 ? (b0 ? 1 : 0) : 0)" — used by tests.
  [[nodiscard]] std::string to_string(Ref f) const;

  /// Sum-of-products form using variable names, e.g. "b1&b0 | !b1&b2".
  /// Enumerates the BDD's 1-paths; intended for small condition BDDs.
  [[nodiscard]] std::string to_sop(Ref f) const;

  // --- top-of-node accessors (needed by compose/emitters) -------------------

  [[nodiscard]] int top_var(Ref f) const {
    std::lock_guard<std::mutex> lock(mu_);
    return node(f).var;
  }
  [[nodiscard]] Ref low(Ref f) const {
    std::lock_guard<std::mutex> lock(mu_);
    return node(f).lo;
  }
  [[nodiscard]] Ref high(Ref f) const {
    std::lock_guard<std::mutex> lock(mu_);
    return node(f).hi;
  }

 private:
  struct Node {
    int var;  // variable index; constants use a sentinel beyond all vars
    Ref lo;
    Ref hi;
  };

  /// One computed-table slot; f == kFalse marks it empty (ite never
  /// memoises a constant f: those are terminal cases).
  struct IteEntry {
    Ref f = kFalse, g = kFalse, h = kFalse, r = kFalse;
  };

  [[nodiscard]] const Node& node(Ref r) const { return nodes_[r]; }
  [[nodiscard]] Ref make_node(int var, Ref lo, Ref hi);
  [[nodiscard]] static std::size_t node_hash(int var, Ref lo, Ref hi);
  void rehash_unique(std::size_t slots);
  [[nodiscard]] int level(Ref r) const { return node(r).var; }

  // Unlocked recursive cores; callers hold mu_.
  [[nodiscard]] Ref ite_rec(Ref f, Ref g, Ref h);
  [[nodiscard]] Ref restrict_rec(Ref f, int v, bool value);
  [[nodiscard]] std::string to_string_rec(Ref f) const;

  double sat_fraction(Ref f, std::unordered_map<Ref, double>& memo) const;
  void to_sop_rec(Ref f, std::vector<std::pair<int, bool>>& path,
                  std::vector<std::string>& cubes) const;

  static constexpr int kConstLevel = 1 << 30;
  static constexpr std::size_t kInitialUniqueSlots = 64;
  [[nodiscard]] static std::size_t ite_slot(Ref f, Ref g, Ref h);

  /// Serialises node-table access (see the thread-safety note above). The
  /// variable table (names_) is intentionally outside the contract: it is
  /// frozen before the manager is shared.
  mutable std::mutex mu_;
  std::vector<Node> nodes_;
  std::vector<std::string> names_;
  /// Unique table: open addressing with linear probing over Refs, keyed
  /// by the (var, lo, hi) of the node each Ref names in nodes_; kFalse
  /// marks an empty slot (constants are never entered). A power of two of
  /// slots, at most half full: 8 to 16 bytes a node next to its 12 in
  /// nodes_.
  std::vector<Ref> unique_;
  std::vector<IteEntry> ite_cache_;
};

/// A little-endian vector of condition BDDs representing a symbolic bus or
/// port value: bits()[i] is the BDD for bit i. Used by control-signal
/// analysis to propagate instruction-word bits through decoders.
class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::vector<Ref> bits) : bits_(std::move(bits)) {}

  /// All-constant vector of the given width holding `value`.
  static BitVec constant(std::uint64_t value, int width);

  [[nodiscard]] int width() const { return static_cast<int>(bits_.size()); }
  [[nodiscard]] Ref bit(int i) const { return bits_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] const std::vector<Ref>& bits() const { return bits_; }

  /// bits [lo, hi] inclusive as a new vector (hi >= lo).
  [[nodiscard]] BitVec slice(int hi, int lo) const;

  /// Concatenation: `high` occupies the upper bits of the result.
  [[nodiscard]] static BitVec concat(const BitVec& high, const BitVec& low);

  /// Condition BDD for "this == value" (value zero-extended/truncated to
  /// width).
  [[nodiscard]] Ref equals_const(BddManager& mgr, std::uint64_t value) const;

  /// Condition BDD for "this == other"; widths must match.
  [[nodiscard]] Ref equals(BddManager& mgr, const BitVec& other) const;

  /// True if every bit is constant; then `constant_value` is meaningful.
  [[nodiscard]] bool is_constant() const;
  [[nodiscard]] std::uint64_t constant_value() const;

 private:
  std::vector<Ref> bits_;
};

}  // namespace record::bdd
