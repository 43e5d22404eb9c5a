#include "obs/coverage.h"

#include <algorithm>
#include <cstdio>

#include "util/strings.h"

namespace record::obs {

std::string_view to_string(CoverageVariant v) {
  switch (v) {
    case CoverageVariant::kSpillPark: return "spill_park";
    case CoverageVariant::kSpillCallerSave: return "spill_caller_save";
    case CoverageVariant::kSpillGuardWrap: return "spill_guard_wrap";
    case CoverageVariant::kCompactMerge: return "compact_merge";
    case CoverageVariant::kCompactModeSet: return "compact_mode_set";
    case CoverageVariant::kPromotedRetry: return "promoted_retry";
  }
  return "unknown";
}

namespace {

std::size_t count_nonzero(const std::vector<std::uint64_t>& v) {
  return static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(),
                    [](std::uint64_t h) { return h != 0; }));
}

}  // namespace

std::size_t CoverageSnapshot::rules_matched_covered() const {
  return count_nonzero(counts.rules_matched);
}
std::size_t CoverageSnapshot::rules_chosen_covered() const {
  return count_nonzero(counts.rules_chosen);
}
std::size_t CoverageSnapshot::states_covered() const {
  return count_nonzero(counts.states);
}
std::size_t CoverageSnapshot::transitions_covered() const {
  return count_nonzero(counts.transitions);
}

std::vector<int> CoverageSnapshot::uncovered_rules() const {
  std::vector<int> out;
  const std::size_t n =
      std::max<std::size_t>(counts.rules_chosen.size(),
                            static_cast<std::size_t>(rules_total));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t hits =
        i < counts.rules_chosen.size() ? counts.rules_chosen[i] : 0;
    if (hits == 0) out.push_back(static_cast<int>(i));
  }
  return out;
}

CoverageSnapshot coverage_diff(const CoverageSnapshot& before,
                               const CoverageSnapshot& after) {
  CoverageSnapshot d = after;
  const auto sub = [](std::vector<std::uint64_t>& a,
                      const std::vector<std::uint64_t>& b) {
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
      a[i] = a[i] >= b[i] ? a[i] - b[i] : 0;
  };
  sub(d.counts.rules_matched, before.counts.rules_matched);
  sub(d.counts.rules_chosen, before.counts.rules_chosen);
  sub(d.counts.states, before.counts.states);
  sub(d.counts.transitions, before.counts.transitions);
  for (std::size_t i = 0; i < kCoverageVariantCount; ++i) {
    const std::uint64_t b = before.counts.variants[i];
    d.counts.variants[i] =
        d.counts.variants[i] >= b ? d.counts.variants[i] - b : 0;
  }
  const auto sub1 = [](std::uint64_t& a, std::uint64_t b) {
    a = a >= b ? a - b : 0;
  };
  sub1(d.counts.state_overflow, before.counts.state_overflow);
  sub1(d.counts.transition_overflow, before.counts.transition_overflow);
  sub1(d.counts.foreign_ids, before.counts.foreign_ids);
  sub1(d.counts.cold_transitions, before.counts.cold_transitions);
  return d;
}

void coverage_merge(CoverageSnapshot& into, const CoverageSnapshot& from) {
  if (into.target.empty()) into.target = from.target;
  into.rules_total = std::max(into.rules_total, from.rules_total);
  if (into.rule_names.empty()) into.rule_names = from.rule_names;
  const auto add = [](std::vector<std::uint64_t>& a,
                      const std::vector<std::uint64_t>& b) {
    if (a.size() < b.size()) a.resize(b.size(), 0);
    for (std::size_t i = 0; i < b.size(); ++i) a[i] += b[i];
  };
  add(into.counts.rules_matched, from.counts.rules_matched);
  add(into.counts.rules_chosen, from.counts.rules_chosen);
  add(into.counts.states, from.counts.states);
  add(into.counts.transitions, from.counts.transitions);
  for (std::size_t i = 0; i < kCoverageVariantCount; ++i)
    into.counts.variants[i] += from.counts.variants[i];
  into.counts.state_overflow += from.counts.state_overflow;
  into.counts.transition_overflow += from.counts.transition_overflow;
  into.counts.foreign_ids += from.counts.foreign_ids;
  into.counts.cold_transitions += from.counts.cold_transitions;
}

CoverageMap::CoverageMap(std::string target, Config config)
    : target_(std::move(target)),
      rule_names_(std::move(config.rule_names)),
      rules_cap_(config.rules),
      states_cap_(config.states),
      transitions_cap_(config.transitions) {
  // () value-initialises every atomic to zero.
  if (rules_cap_) {
    rules_matched_.reset(new std::atomic<std::uint64_t>[rules_cap_]());
    rules_chosen_.reset(new std::atomic<std::uint64_t>[rules_cap_]());
  }
  if (states_cap_)
    states_.reset(new std::atomic<std::uint64_t>[states_cap_]());
  if (transitions_cap_)
    transitions_.reset(new std::atomic<std::uint64_t>[transitions_cap_]());
}

bool CoverageMap::claim_ids(std::uint64_t source) {
  std::uint64_t owner = 0;
  return id_source_.compare_exchange_strong(owner, source,
                                            std::memory_order_relaxed) ||
         owner == source;
}

CoverageDistinct CoverageMap::distinct() const {
  CoverageDistinct d;
  d.rules_matched = distinct_rules_matched_.load(std::memory_order_relaxed);
  d.rules_chosen = distinct_rules_chosen_.load(std::memory_order_relaxed);
  d.states = distinct_states_.load(std::memory_order_relaxed);
  d.transitions = distinct_transitions_.load(std::memory_order_relaxed);
  return d;
}

CoverageSnapshot CoverageMap::snapshot() const {
  CoverageSnapshot s;
  s.target = target_;
  s.rule_names = rule_names_;
  s.rules_total = rules_cap_;
  const auto read = [](const std::atomic<std::uint64_t>* arr, std::size_t n,
                       std::vector<std::uint64_t>& out) {
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      out[i] = arr[i].load(std::memory_order_relaxed);
  };
  if (rules_matched_) read(rules_matched_.get(), rules_cap_,
                           s.counts.rules_matched);
  if (rules_chosen_) read(rules_chosen_.get(), rules_cap_,
                          s.counts.rules_chosen);
  if (states_) read(states_.get(), states_cap_, s.counts.states);
  if (transitions_)
    read(transitions_.get(), transitions_cap_, s.counts.transitions);
  for (std::size_t i = 0; i < kCoverageVariantCount; ++i)
    s.counts.variants[i] = variants_[i].load(std::memory_order_relaxed);
  s.counts.state_overflow = state_overflow_.load(std::memory_order_relaxed);
  s.counts.transition_overflow =
      transition_overflow_.load(std::memory_order_relaxed);
  s.counts.foreign_ids = foreign_ids_.load(std::memory_order_relaxed);
  s.counts.cold_transitions =
      cold_transitions_.load(std::memory_order_relaxed);
  return s;
}

CoverageMap& CoverageRegistry::map_for(
    std::string_view target,
    const std::function<CoverageMap::Config()>& config) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = maps_.find(target);
  if (it == maps_.end()) {
    it = maps_
             .emplace(std::string(target),
                      std::make_unique<CoverageMap>(std::string(target),
                                                    config()))
             .first;
  }
  return *it->second;
}

CoverageMap* CoverageRegistry::find(std::string_view target) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = maps_.find(target);
  return it == maps_.end() ? nullptr : it->second.get();
}

std::vector<CoverageSnapshot> CoverageRegistry::snapshot_all() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CoverageSnapshot> out;
  out.reserve(maps_.size());
  for (const auto& [name, map] : maps_) out.push_back(map->snapshot());
  return out;
}

void CoverageRegistry::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  maps_.clear();
}

CoverageRegistry& coverage() {
  static CoverageRegistry* registry = new CoverageRegistry();  // leaked
  return *registry;
}

// --- reports ----------------------------------------------------------------

namespace {

/// "covered/total (pct)"; total 0 = no denominator, prints the count alone.
void append_ratio_line(std::string& out, const char* what,
                       std::size_t covered, std::uint64_t total) {
  out += "  ";
  out += what;
  out += ": ";
  out += std::to_string(covered);
  if (total > 0) {
    out += '/';
    out += std::to_string(total);
    char buf[16];
    std::snprintf(buf, sizeof buf, " (%.1f%%)",
                  100.0 * static_cast<double>(covered) /
                      static_cast<double>(total));
    out += buf;
  }
  out += '\n';
}

void append_hits_array(std::string& out, const char* key,
                       const std::vector<std::uint64_t>& hits) {
  out += '"';
  out += key;
  out += "\":[";
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (i) out.push_back(',');
    out += std::to_string(hits[i]);
  }
  out += ']';
}

void append_dimension(std::string& out, const char* key, std::size_t covered,
                      std::uint64_t total,
                      const std::vector<std::uint64_t>& hits,
                      bool with_hits) {
  out += '"';
  out += key;
  out += "\":{\"covered\":";
  out += std::to_string(covered);
  out += ",\"total\":";
  out += std::to_string(total);
  if (with_hits) {
    out.push_back(',');
    append_hits_array(out, "hits", hits);
  }
  out.push_back('}');
}

}  // namespace

std::string coverage_report_text(const CoverageSnapshot& s) {
  std::string out;
  out += "coverage of target '";
  out += s.target;
  out += "'\n";
  append_ratio_line(out, "rules matched", s.rules_matched_covered(),
                    s.rules_total);
  append_ratio_line(out, "rules chosen", s.rules_chosen_covered(),
                    s.rules_total);
  append_ratio_line(out, "states", s.states_covered(), 0);
  append_ratio_line(out, "transitions", s.transitions_covered(), 0);
  out += "  cold transitions: ";
  out += std::to_string(s.counts.cold_transitions);
  out += '\n';
  for (std::size_t i = 0; i < kCoverageVariantCount; ++i) {
    if (s.counts.variants[i] == 0) continue;
    out += "  variant ";
    out += to_string(static_cast<CoverageVariant>(i));
    out += ": ";
    out += std::to_string(s.counts.variants[i]);
    out += '\n';
  }
  if (s.counts.state_overflow || s.counts.transition_overflow) {
    out += "  overflow: states ";
    out += std::to_string(s.counts.state_overflow);
    out += ", transitions ";
    out += std::to_string(s.counts.transition_overflow);
    out += '\n';
  }
  if (s.counts.foreign_ids) {
    out += "  ids from other tables instances: ";
    out += std::to_string(s.counts.foreign_ids);
    out += '\n';
  }
  const std::vector<int> uncovered = s.uncovered_rules();
  if (uncovered.empty()) {
    out += "  every rule chosen at least once\n";
    return out;
  }
  out += "  rules never chosen (";
  out += std::to_string(uncovered.size());
  out += "):\n";
  // Cap the listing: expanded grammars carry hundreds of commutative and
  // addressing-mode duplicates, and a thousand-line dump buries the summary.
  // The JSON report keeps the complete list.
  constexpr std::size_t kMaxListed = 25;
  const std::size_t listed = std::min(uncovered.size(), kMaxListed);
  for (std::size_t i = 0; i < listed; ++i) {
    const int id = uncovered[i];
    out += "    #";
    out += std::to_string(id);
    if (static_cast<std::size_t>(id) < s.rule_names.size()) {
      out += "  ";
      out += s.rule_names[static_cast<std::size_t>(id)];
    }
    out += '\n';
  }
  if (uncovered.size() > listed) {
    out += "    ... and ";
    out += std::to_string(uncovered.size() - listed);
    out += " more (full list in the JSON report)\n";
  }
  return out;
}

std::string coverage_report_json(const std::vector<CoverageSnapshot>& all) {
  std::string out;
  out += "{\"coverage\":[";
  for (std::size_t t = 0; t < all.size(); ++t) {
    const CoverageSnapshot& s = all[t];
    if (t) out.push_back(',');
    out += "{\"target\":";
    util::append_json_quoted(out, s.target);
    out.push_back(',');
    append_dimension(out, "rules_matched", s.rules_matched_covered(),
                     s.rules_total, s.counts.rules_matched, true);
    out.push_back(',');
    append_dimension(out, "rules_chosen", s.rules_chosen_covered(),
                     s.rules_total, s.counts.rules_chosen, true);
    out.push_back(',');
    append_dimension(out, "states", s.states_covered(), 0, s.counts.states,
                     false);
    out.push_back(',');
    append_dimension(out, "transitions", s.transitions_covered(), 0,
                     s.counts.transitions, false);
    out += ",\"cold_transitions\":";
    out += std::to_string(s.counts.cold_transitions);
    out += ",\"variants\":{";
    for (std::size_t i = 0; i < kCoverageVariantCount; ++i) {
      if (i) out.push_back(',');
      out.push_back('"');
      out += to_string(static_cast<CoverageVariant>(i));
      out += "\":";
      out += std::to_string(s.counts.variants[i]);
    }
    out += "},\"uncovered_rules\":[";
    const std::vector<int> uncovered = s.uncovered_rules();
    for (std::size_t i = 0; i < uncovered.size(); ++i) {
      if (i) out.push_back(',');
      const int id = uncovered[i];
      out += "{\"rule\":";
      out += std::to_string(id);
      if (static_cast<std::size_t>(id) < s.rule_names.size()) {
        out += ",\"name\":";
        util::append_json_quoted(
            out, s.rule_names[static_cast<std::size_t>(id)]);
      }
      out.push_back('}');
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace record::obs
