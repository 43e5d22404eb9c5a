// The three workloads. Each fills `report` with the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run) and records every
// output mismatch in it.
#pragma once

#include "common.h"

namespace perfbench {

/// One thread, Compiler::compile on warm built-in targets.
void run_compile_1t(const Args& args, Report& report);
/// One loopback client, window of 4, LineServer over 2 CompileService
/// workers.
void run_serve_shared(const Args& args, Report& report);
/// Generated-model design-space exploration through a TargetCache.
void run_explore(const Args& args, Report& report);

}  // namespace perfbench
