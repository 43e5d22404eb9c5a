// Workload inputs drawn from the seed, and the expected-output checks.
//
// The built-in mix (compile_1t, serve_shared) is
//   * models::chain_program at k = 8 and 32 on all six built-in models;
//   * the ten DSPStone kernels on tms320c25;
//   * chain variants `acc = t0 + ... + t(k-1) + C` with a seed-drawn
//     constant C in 1..120 on demo, ref, manocpu and tanenbaum (on
//     bass_boost and tms320c25 such constants have no cover).
// The explore pool is a stream of testgen::generate_model variants, each
// with one testgen::generate_program kernel that compiles.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/compiler.h"
#include "ir/program.h"
#include "sim/check.h"

namespace perfbench {

/// One distinct program of a workload.
struct ProgramSpec {
  std::string model;  // built-in model it targets
  std::string name;   // unique within the mix
  std::shared_ptr<const record::ir::Program> program;
  std::string kernel;  // kernel-language text of `program`
};

/// The built-in mix for `seed` (deterministic in the seed).
[[nodiscard]] std::vector<ProgramSpec> builtin_mix(std::uint64_t seed);

/// The six built-in model names in Table 3 order.
[[nodiscard]] std::vector<std::string> builtin_models();

/// splitmix64 of (seed, stream): independent sub-seeds for each draw.
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream);

/// FNV-1a digest of the given strings (prints the program set identity).
[[nodiscard]] std::uint64_t digest(const std::vector<std::string>& parts);

/// What one compile produced, for byte-for-byte comparison.
struct Output {
  std::size_t words = 0;
  std::string encoding;  // hex words, space separated
  std::string listing;

  friend bool operator==(const Output&, const Output&) = default;
};

[[nodiscard]] Output output_of(const record::core::CompileResult& result);

/// Tally of semantic checks: agreements and named skip reasons.
struct SemanticTally {
  std::size_t agreed = 0;
  std::map<std::string, int> skips;

  void print() const;
};

/// Runs sim::check_semantics on one compiled program. Agreement passes; a
/// skip for a named reason passes and is tallied; anything else is a
/// failure recorded in `report`. Returns whether the program passed.
bool check_program(const std::string& name, const record::ir::Program& prog,
                   const record::core::CompileResult& result,
                   const record::core::RetargetResult& target,
                   const record::sim::CheckOptions& options, Report& report,
                   SemanticTally& tally);

}  // namespace perfbench
