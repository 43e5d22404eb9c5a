// Selection coverage maps: which parts of a generated selector a workload
// actually exercises.
//
// A CoverageMap tallies, per retargeted processor, hits on
//   * grammar rules MATCHED during labelling (any rule that wins some
//     non-terminal at some node, whether or not the derivation uses it),
//   * grammar rules CHOSEN in optimal derivations (what selection trusts),
//   * interned BURS states assigned to subject nodes, and
//   * BURS table transitions looked up, by their transition id,
// plus variant counters for the rarely-taken compile-stage paths (spill
// parks, caller saves, guard wraps, compaction merges, mode-set insertion,
// promoted-precision retries) and overflow/cold counters so nothing is
// silently dropped.
//
// The record path follows the same discipline as spans and metrics: one
// relaxed atomic fetch_add on storage whose address never moves, no locks,
// no allocation. Whether recording happens at all is gated by ONE relaxed
// load (CoverageRegistry::enabled()) checked once per compile — the hot
// loops receive a CoverageMap* that is null when coverage is off, so the
// disabled cost in the per-node path is a pointer test. Defining
// RECORD_OBS_DISABLE compiles every record call out entirely.
//
// Each hit array keeps a companion "distinct" counter bumped exactly once
// per index (fetch_add returning 0 claims the first hit), so coverage-guided
// fuzzing reads novelty deltas in O(1) without walking the arrays.
//
// State and transition ids are handed out in first-use order per
// TargetTables instance: the tables fill on demand as subjects are labelled,
// so these two dimensions have no fixed denominator, and ids from two
// instances of one target's tables need not name the same entry. A map
// therefore counts ids from ONE instance, the first to claim it
// (claim_ids); a parser over any other instance records its ids as
// `foreign_ids` instead, next to the overflow counters.
//
// Snapshots are plain-value CoverageSnapshot structs supporting diff (what
// did THIS input add), merge (fold a worker's map into a campaign total) and
// export as JSON or a human-readable report with uncovered-rule names.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace record::obs {

/// Rarely-taken compile-stage paths a workload may or may not reach.
enum class CoverageVariant : std::uint8_t {
  kSpillPark = 0,       // within-statement park (store+reload pair)
  kSpillCallerSave,     // caller-save wrap of a bound register
  kSpillGuardWrap,      // entry-block guard wrap (park+reload around entry)
  kCompactMerge,        // two RTs packed into one instruction word
  kCompactModeSet,      // mode-set instruction inserted by compaction
  kPromotedRetry,       // statement re-labelled at promoted precision
};
inline constexpr std::size_t kCoverageVariantCount = 6;

[[nodiscard]] std::string_view to_string(CoverageVariant v);

/// Raw hit counts at snapshot time (plain values; index = id).
struct CoverageCounts {
  std::vector<std::uint64_t> rules_matched;
  std::vector<std::uint64_t> rules_chosen;
  std::vector<std::uint64_t> states;
  std::vector<std::uint64_t> transitions;
  std::array<std::uint64_t, kCoverageVariantCount> variants{};
  std::uint64_t state_overflow = 0;       // state id beyond map capacity
  std::uint64_t transition_overflow = 0;  // id beyond map capacity
  std::uint64_t foreign_ids = 0;  // state/transition ids of another instance
  std::uint64_t cold_transitions = 0;     // merges, #const leaves (no id)
};

/// One target's coverage, frozen as plain values. Only rules have a
/// denominator, `rules_total`, fixed when the map is created.
struct CoverageSnapshot {
  std::string target;
  std::uint64_t rules_total = 0;
  std::vector<std::string> rule_names;  // [rule id]; may be empty
  CoverageCounts counts;

  [[nodiscard]] std::size_t rules_matched_covered() const;
  [[nodiscard]] std::size_t rules_chosen_covered() const;
  [[nodiscard]] std::size_t states_covered() const;
  [[nodiscard]] std::size_t transitions_covered() const;
  /// Rule ids never chosen in any derivation (the trust gap).
  [[nodiscard]] std::vector<int> uncovered_rules() const;
};

/// counts(after) - counts(before), elementwise (saturating at 0); target,
/// rule total and names come from `after`. The before/after maps must be
/// snapshots of the same CoverageMap.
[[nodiscard]] CoverageSnapshot coverage_diff(const CoverageSnapshot& before,
                                             const CoverageSnapshot& after);

/// Adds `from`'s counts into `into` elementwise, growing arrays as needed;
/// the rule total takes the max.
void coverage_merge(CoverageSnapshot& into, const CoverageSnapshot& from);

/// O(1)-readable distinct-coverage counters (for novelty deltas).
struct CoverageDistinct {
  std::uint64_t rules_matched = 0;
  std::uint64_t rules_chosen = 0;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;

  [[nodiscard]] std::uint64_t total() const {
    return rules_matched + rules_chosen + states + transitions;
  }
  friend bool operator==(const CoverageDistinct&,
                         const CoverageDistinct&) = default;
};

/// Per-target hit arrays. Fixed capacity chosen at creation (rule capacity
/// is exact; state/transition capacities carry headroom for dynamic table
/// growth — out-of-range ids land in the overflow counters, never UB).
class CoverageMap {
 public:
  struct Config {
    std::size_t rules = 0;
    std::size_t states = 0;
    std::size_t transitions = 0;
    std::vector<std::string> rule_names;  // [rule id]; optional
  };

  CoverageMap(std::string target, Config config);

  CoverageMap(const CoverageMap&) = delete;
  CoverageMap& operator=(const CoverageMap&) = delete;

  [[nodiscard]] const std::string& target() const { return target_; }

  /// Claims the state and transition dimensions for the id source `source`
  /// (a TargetTables instance serial, nonzero). The first claim wins; true
  /// iff `source` owns them. Callers decide once per attach and send the
  /// ids of a non-owning source to record_foreign_id().
  bool claim_ids(std::uint64_t source);

#ifndef RECORD_OBS_DISABLE
  void record_rule_matched(int id) {
    hit(rules_matched_.get(), rules_cap_, id, distinct_rules_matched_,
        rule_overflow_);
  }
  void record_rule_chosen(int id) {
    hit(rules_chosen_.get(), rules_cap_, id, distinct_rules_chosen_,
        rule_overflow_);
  }
  void record_state(int id) {
    hit(states_.get(), states_cap_, id, distinct_states_, state_overflow_);
  }
  void record_transition(int id) {
    hit(transitions_.get(), transitions_cap_, id, distinct_transitions_,
        transition_overflow_);
  }
  void record_cold_transition() {
    cold_transitions_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_foreign_id() {
    foreign_ids_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_variant(CoverageVariant v, std::uint64_t n = 1) {
    if (n) variants_[static_cast<std::size_t>(v)].fetch_add(
        n, std::memory_order_relaxed);
  }
#else
  void record_rule_matched(int) {}
  void record_rule_chosen(int) {}
  void record_state(int) {}
  void record_transition(int) {}
  void record_cold_transition() {}
  void record_foreign_id() {}
  void record_variant(CoverageVariant, std::uint64_t = 1) {}
#endif

  [[nodiscard]] CoverageDistinct distinct() const;
  [[nodiscard]] CoverageSnapshot snapshot() const;

 private:
  static void hit(std::atomic<std::uint64_t>* arr, std::size_t cap, int id,
                  std::atomic<std::uint64_t>& distinct,
                  std::atomic<std::uint64_t>& overflow) {
    if (id < 0 || static_cast<std::size_t>(id) >= cap) {
      overflow.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (arr[static_cast<std::size_t>(id)].fetch_add(
            1, std::memory_order_relaxed) == 0)
      distinct.fetch_add(1, std::memory_order_relaxed);
  }

  std::string target_;
  std::vector<std::string> rule_names_;
  std::size_t rules_cap_ = 0;
  std::size_t states_cap_ = 0;
  std::size_t transitions_cap_ = 0;
  // Value-initialised atomic arrays; addresses stable for the map lifetime.
  std::unique_ptr<std::atomic<std::uint64_t>[]> rules_matched_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> rules_chosen_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> states_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> transitions_;
  std::array<std::atomic<std::uint64_t>, kCoverageVariantCount> variants_{};
  std::atomic<std::uint64_t> rule_overflow_{0};
  std::atomic<std::uint64_t> state_overflow_{0};
  std::atomic<std::uint64_t> transition_overflow_{0};
  std::atomic<std::uint64_t> foreign_ids_{0};
  std::atomic<std::uint64_t> id_source_{0};  // claim_ids owner; 0 = none
  std::atomic<std::uint64_t> cold_transitions_{0};
  std::atomic<std::uint64_t> distinct_rules_matched_{0};
  std::atomic<std::uint64_t> distinct_rules_chosen_{0};
  std::atomic<std::uint64_t> distinct_states_{0};
  std::atomic<std::uint64_t> distinct_transitions_{0};
};

/// Name -> CoverageMap. Mirrors MetricsRegistry: lookup takes a mutex and
/// runs once per compile; the returned reference stays valid (and its
/// record path wait-free) for the registry's lifetime.
class CoverageRegistry {
 public:
#ifndef RECORD_OBS_DISABLE
  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  void disable() { enabled_.store(false, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
#else
  void enable() {}
  void disable() {}
  [[nodiscard]] bool enabled() const { return false; }
#endif

  /// The map for `target`, creating it with `config()` on first use (the
  /// factory runs at most once per target, so callers may build rule-name
  /// tables in it without paying per compile).
  [[nodiscard]] CoverageMap& map_for(
      std::string_view target,
      const std::function<CoverageMap::Config()>& config);

  /// Existing map, or null. The pointer stays valid until clear().
  [[nodiscard]] CoverageMap* find(std::string_view target) const;

  /// All maps' snapshots, name-sorted (deterministic dumps).
  [[nodiscard]] std::vector<CoverageSnapshot> snapshot_all() const;

  /// Drops every map (tests isolate themselves with this; references handed
  /// out earlier dangle, so only use between workloads).
  void clear();

 private:
  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::map<std::string, std::unique_ptr<CoverageMap>, std::less<>> maps_;
};

/// The process-wide coverage registry (off until enable()).
[[nodiscard]] CoverageRegistry& coverage();

/// Human-readable per-target report (covered/total for rules, covered counts
/// for states and transitions, variant tallies, the uncovered-rule list with
/// names when available).
[[nodiscard]] std::string coverage_report_text(const CoverageSnapshot& s);

/// JSON report over several targets:
/// {"coverage": [{"target": ..., "rules": {"covered","total","hits",...},
///   ...}]}. Self-contained valid-UTF-8 output (obs cannot depend on
/// service::Json).
[[nodiscard]] std::string coverage_report_json(
    const std::vector<CoverageSnapshot>& all);

}  // namespace record::obs
