// perfbench: the benchmark entry point for compile, serve and retarget.
//
//   perfbench --workload <compile_1t|serve_shared|explore> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//             [--trace-out <file>]
//
// Prints a human-readable report, then, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1 when
// any output was wrong, 2 on bad arguments. See README.md.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>

#include "common.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<compile_1t|serve_shared|explore> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>] [--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") args.workload = value;
    else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") args.seconds = std::atof(value);
    else if (flag == "--trace") args.trace = std::string_view(value) == "1";
    else if (flag == "--work-dir") args.work_dir = value;
    else if (flag == "--trace-out") args.trace_out = value;
    else return usage("unknown flag");
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (!have_seed || args.seconds <= 0)
    return usage("need --seed and --seconds");
  if (args.work_dir.empty())
    args.work_dir = (std::filesystem::current_path() / ".bench_build" /
                     "perfbench-work")
                        .string();
  std::filesystem::create_directories(args.work_dir);

  perfbench::Report report;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (args.workload == "compile_1t") perfbench::run_compile_1t(args, report);
  else if (args.workload == "serve_shared")
    perfbench::run_serve_shared(args, report);
  else if (args.workload == "explore") perfbench::run_explore(args, report);
  else return usage("unknown workload");

  report.print_table();
  const double attempted = static_cast<double>(report.attempted());
  std::printf("attempted=%llu failed=%llu fail_share=%.6f correct=%s\n",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              attempted > 0 ? static_cast<double>(report.failed()) / attempted
                            : 0.0,
              report.correct() ? "true" : "false");
  std::printf("%s\n", report.json().c_str());
  std::fflush(stdout);
  return report.correct() && report.attempted() > 0 ? 0 : 1;
}
