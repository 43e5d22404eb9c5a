// coverage_report: selection-coverage survey over the built-in models.
//
// Retargets every built-in model, compiles the shared accumulator-chain
// workload (models/workload.h) at several sizes with coverage recording on,
// and reports which grammar rules / BURS states / table transitions the
// workload actually reached. Per model it prints the
// human-readable report (obs::coverage_report_text, including the
// uncovered-rule list by name) and merges everything into one
// machine-readable COVERAGE_report.json (committed at the repo root each PR,
// uploaded as a CI artifact), so selector coverage is tracked across
// commits.
//
// --floor R gates on rule coverage: exit non-zero when any model's
// chosen-rule ratio falls below R (0..1) — the CI coverage gate. The chain
// workload deliberately exercises only part of each grammar (commutative
// duplicates and uncovered addressing modes stay cold), so the committed
// floor is a ratchet against regressions, not a 100% target.
//
// Usage: coverage_report [--out <path>] [--floor R] [--terms K]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/record.h"
#include "models/workload.h"
#include "obs/coverage.h"
#include "util/diagnostics.h"

using namespace record;

int main(int argc, char** argv) {
  std::string out_path = "COVERAGE_report.json";
  double floor = -1;
  int max_terms = 24;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--floor") && i + 1 < argc) {
      floor = std::strtod(argv[++i], nullptr);
      if (floor < 0 || floor > 1) {
        std::fprintf(stderr, "--floor wants a ratio in [0,1]\n");
        return 2;
      }
    } else if (!std::strcmp(argv[i], "--terms") && i + 1 < argc) {
      max_terms = std::atoi(argv[++i]);
      if (max_terms < 1) {
        std::fprintf(stderr, "--terms wants a positive count\n");
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: coverage_report [--out path] [--floor R] "
                   "[--terms K]\n");
      return 2;
    }
  }

  obs::coverage().enable();

  int failures = 0;
  for (const models::ChainShape& s : models::kChainShapes) {
    util::DiagnosticSink diags;
    auto target =
        core::Record::retarget_model(s.model, core::RetargetOptions{}, diags);
    if (!target) {
      std::fprintf(stderr, "%s: retarget failed: %s\n", s.model,
                   diags.first_error().c_str());
      return 1;
    }
    core::Compiler compiler(*target);
    // Several chain sizes: k=1 is the pure load/store shape, larger chains
    // force accumulator reuse, spills and compaction merges.
    for (int k = 1; k <= max_terms; k = k < 4 ? k + 1 : k * 2) {
      ir::Program prog = models::chain_program(s, k);
      util::DiagnosticSink cd;
      if (!compiler.compile(prog, core::CompileOptions{}, cd)) {
        std::fprintf(stderr, "%s: compile failed at %d terms: %s\n", s.model,
                     k, cd.first_error().c_str());
        return 1;
      }
    }
  }

  const std::vector<obs::CoverageSnapshot> all =
      obs::coverage().snapshot_all();
  for (const obs::CoverageSnapshot& snap : all) {
    std::printf("%s", obs::coverage_report_text(snap).c_str());
    if (floor >= 0 && snap.rules_total > 0) {
      const double ratio = static_cast<double>(snap.rules_chosen_covered()) /
                           static_cast<double>(snap.rules_total);
      if (ratio < floor) {
        std::fprintf(stderr,
                     "COVERAGE FLOOR %s: chosen-rule coverage %.3f below "
                     "floor %.3f\n",
                     snap.target.c_str(), ratio, floor);
        ++failures;
      }
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << obs::coverage_report_json(all) << "\n";
  std::printf("wrote %s (%zu models)\n", out_path.c_str(), all.size());
  return failures == 0 ? 0 : 1;
}
