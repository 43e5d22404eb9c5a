// RT-level instruction-set simulator.
//
// Executes the *emitted binary words* of a compiled program against the
// machine model, with no help from selection metadata: each word is decoded
// purely from its bits. A template fires when its BDD execution condition
// evaluates true under the word's instruction bits (I[k]), the current mode
// register state (M:<inst>[k]) and resolvable dynamic bits — register
// contents read as control signals (S:<inst>.<port>[k]) and primary input
// ports (S:@<port>[k]). All fired templates execute concurrently with
// read-before-write cycle semantics: every value and address tree is
// evaluated against the pre-cycle state, then all writes commit at once —
// exactly how the modeled single-cycle datapath behaves, and exactly what
// compaction's dependence rules must respect.
//
// The decoder REJECTS malformed words instead of silently executing them:
//   * a word under which no template fires,
//   * two fired templates writing different values to one location
//     (datapath contention),
//   * a memory write whose decoded address lies outside the memory,
//   * a taken branch whose decoded target lies outside the program,
//   * a condition that cannot be resolved from machine state (opaque
//     data-dependent control, e.g. an ISZERO status unit) — reported as
//     `unsupported` rather than failed.
//
// A program that ends without branching halts when the PC runs past the
// last word. Generated loop programs never halt, so runs also stop after
// `max_taken_branches` taken branches (the IR reference evaluator uses the
// same budget — see sim/eval.h).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "emit/encode.h"
#include "rtl/template.h"
#include "sim/eval.h"
#include "sim/state.h"

namespace record::sim {

struct MachineOptions {
  int max_steps = 100000;
  int max_taken_branches = 4;
  /// Values of primary input ports (default 0).
  std::map<std::string, std::int64_t> in_ports;
};

struct MachineResult {
  bool ok = false;
  /// Decode hit control state this simulator cannot resolve (opaque
  /// dynamic condition bits or a custom unit without semantics).
  bool unsupported = false;
  std::string error;
  StopReason stop = StopReason::kHalt;
  std::int64_t steps = 0;
  std::int64_t taken_branches = 0;
  State state;
};

class Machine {
 public:
  /// Storage acting as the program counter (matches the selector's branch
  /// template convention, select::CodeSelector::kProgramCounter).
  static constexpr const char* kProgramCounter = "PC";

  explicit Machine(const rtl::TemplateBase& base);

  /// Runs the encoded program from address 0. `initial` (optional) seeds
  /// the pre-execution state.
  [[nodiscard]] MachineResult run(const emit::Assembly& assembly,
                                  const MachineOptions& options = {},
                                  const State* initial = nullptr) const;

 private:
  const rtl::TemplateBase& base_;
  std::vector<bool> resolvable_;              // [bdd variable]
  std::vector<std::vector<int>> support_;     // [template] cond support vars
  std::vector<bool> has_unresolvable_;        // [template]
};

}  // namespace record::sim
