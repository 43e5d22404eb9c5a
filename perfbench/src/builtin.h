// Steps shared by the two workloads over the built-in models (compile_1t,
// serve_shared): retargeting, the reference compile of every distinct
// program, its semantic and traced-path checks, and the per-model and
// retarget probes of a traced run.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/compiler.h"
#include "inputs.h"
#include "metrics.h"

namespace perfbench {

/// Set-up is repeated this many times per run; setup_s is the median.
inline constexpr int kSetupReps = 5;

using Targets =
    std::map<std::string, std::shared_ptr<const record::core::RetargetResult>>;

/// Record::retarget_model on each built-in model (default options).
[[nodiscard]] Targets retarget_builtins(Report& report);

/// Total BDD nodes over the targets' managers.
[[nodiscard]] std::size_t bdd_nodes(const Targets& targets);

/// Compiles every program once through Compiler::compile. A failed compile
/// is recorded in `report` and leaves an empty slot.
[[nodiscard]] std::vector<std::optional<record::core::CompileResult>>
compile_all(const Targets& targets, const std::vector<ProgramSpec>& mix,
            record::select::SelectScratch& scratch, Report& report);

/// Renders the outputs of compile_all (empty Output for failed slots).
[[nodiscard]] std::vector<Output> outputs_of(
    const std::vector<std::optional<record::core::CompileResult>>& results);

/// Outside the timed interval: every distinct program through the semantic
/// check, and through the traced compile path, whose bytes must equal the
/// reference `outputs`. Accumulates the traced path's work counts.
void verify_mix(const Targets& targets, const std::vector<ProgramSpec>& mix,
                const std::vector<std::optional<record::core::CompileResult>>&
                    results,
                const std::vector<Output>& outputs, Report& report,
                CountTotals& counts);

/// Traced chain32 compiles on each built-in model: fills
/// LayerStats::per_model with stage p50s and prints the per-model stage
/// table (mean µs per compile).
void model_probe(const Targets& targets, LayerStats& layers, Report& report);

/// Traced decomposed retargets of the six built-in models through a fresh
/// TargetCache under `work_dir` (a cold build and store, then a load),
/// repeated; fills the retarget-layer fields of `layers`.
void retarget_probe(const std::string& work_dir, LayerStats& layers,
                    Report& report);

}  // namespace perfbench
