// Process-wide failpoint registry: named fault-injection sites compiled to
// a single relaxed atomic load when nothing is armed (the same disarmed-cost
// discipline as src/obs/), so production binaries carry the sites for free.
//
// A site is one `if (util::failpoint("name")) <fail>;` at the place where a
// real fault would surface (cache open/read/write, allocation, socket
// write, worker job). Arming is external: the RECORD_FAILPOINTS environment
// variable (via failpoints_init_from_env), recordd's {"cmd":"failpoint"}
// control command, or a test calling failpoint_arm directly.
//
// Spec grammar:
//   "once"      fail the first hit, pass afterwards
//   "every:N"   fail every Nth hit (N >= 1; N=16 is the chaos default)
//   "sleep:MS"  latency injection: sleep MS milliseconds on every hit and
//               then PASS (drives deadline/timeout paths; MS <= 10000)
//   "off"       disarm (accepted by failpoint_arm for symmetry)
//
// Every injection (fail or sleep) increments the obs counter
// "failpoint.fired.<name>", so a chaos campaign can account for each fault
// it introduced.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace record::util {

namespace detail {
/// Number of currently armed failpoints; the disarmed fast path is one
/// relaxed load of this.
extern std::atomic<int> failpoints_armed;
[[nodiscard]] bool failpoint_hit(std::string_view name);
}  // namespace detail

/// True when the named site should fail this hit. Disarmed (the common
/// case): one relaxed load, no lock, no allocation.
inline bool failpoint(std::string_view name) {
  if (detail::failpoints_armed.load(std::memory_order_relaxed) == 0)
    return false;
  return detail::failpoint_hit(name);
}

/// Arms (or re-arms, resetting hit/fire counts) `name` with `spec`; "off"
/// disarms. False with `*error` set on a malformed spec.
bool failpoint_arm(std::string_view name, std::string_view spec,
                   std::string* error = nullptr);

/// Disarms one site; returns false when it was not armed.
bool failpoint_disarm(std::string_view name);

void failpoint_disarm_all();

struct FailpointInfo {
  std::string name;
  std::string spec;
  std::uint64_t hits = 0;   // times the site was reached while armed
  std::uint64_t fires = 0;  // times a fault (fail or sleep) was injected
};

/// Snapshot of every armed site, name-sorted.
[[nodiscard]] std::vector<FailpointInfo> failpoint_list();

/// Total injections across all sites since process start (survives
/// disarming; chaos drivers diff this around each run).
[[nodiscard]] std::uint64_t failpoint_fire_total();

/// Arms sites from `getenv(var)`, format "name=spec;name2=spec2" (',' also
/// accepted as separator). Returns the number armed; malformed entries are
/// skipped with a stderr warning. Explicit call, not a static initialiser,
/// so plain library users never pay for the parse.
int failpoints_init_from_env(const char* var = "RECORD_FAILPOINTS");

}  // namespace record::util
