// The metric sets every workload prints: end-to-end (untraced runs) and
// per-layer (traced runs). Every workload prints every name of its set;
// a layer a workload does not exercise reads 0 (see README.md).
#pragma once

#include <array>
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "layers.h"

namespace perfbench {

/// Each workload's job stream is made of cycles that hold the same mix (a
/// permutation of the distinct programs, a block of the served stream, an
/// exploration epoch). The timed run's complete cycles are grouped into up
/// to kSegments segments, and each latency quantile, throughput and CPU
/// cost is computed per segment. The reported figure is the segments' best
/// quartile (the 25th percentile of latency and CPU cost, the 75th of
/// throughput): load from outside on the shared host only ever slows a
/// segment down, so the best quartile tracks the program rather than its
/// neighbours, and whole cycles keep the mix the same in every segment.
inline constexpr int kSegments = 10;

/// One timed loop: for every job its latency, when it completed and how
/// much CPU the process had used by then (in timed seconds from the loop's
/// start), and the cycle of the stream it belongs to.
struct TimedRun {
  std::vector<double> job_ms;
  std::vector<double> end_s;
  std::vector<double> cpu_s;  // user + system, output checks excluded
  std::vector<std::size_t> cycle;
  double wall_s = 0;          // the timed interval
  double sys_share = 0;       // system share of the loop's CPU time

  void add(double ms, double at_s, double cpu_used_s, std::size_t in_cycle) {
    job_ms.push_back(ms);
    end_s.push_back(at_s);
    cpu_s.push_back(cpu_used_s);
    cycle.push_back(in_cycle);
  }
};

struct EndToEnd {
  std::vector<double> setup_s;  // one per set-up repetition
  TimedRun run;
  std::size_t code_words = 0;   // over the distinct programs
};

void add_end_to_end(Report& report, const EndToEnd& e);

/// Sums of CompileCounts over the distinct programs (one compile each).
struct CountTotals {
  std::size_t programs = 0;
  CompileCounts sum;

  void add(const CompileCounts& c);
};

struct LayerStats {
  // Compile stages: per-call durations and the stage shares of job time.
  std::vector<double> select_ms, spill_ms, compact_ms, encode_ms;
  double select_share = 0, compact_share = 0, emit_share = 0;
  CountTotals counts;
  double bdd_nodes_added_per_job = 0;
  double bdd_nodes_end = 0;

  // Served path: the wire "times" object and the client round trip.
  std::vector<double> frontend_ms, queue_ms, target_ms, compile_ms, wire_ms;
  double compile_inflation = 0;
  double sys_cpu_share = 0;

  // Retarget path.
  std::vector<double> parse_ms, elaborate_ms, extract_ms, extend_ms,
      grammar_ms, tables_ms, store_ms, load_ms;
  double templates = 0, rules = 0, states = 0;  // per retargeted model
  double cache_hit_share = 0;

  /// chain32 stage p50s per built-in model: select, spill, compact, encode.
  std::map<std::string, std::array<double, 4>> per_model;

  double trace_overhead_ms = 0;

  /// Copies the compile-stage spans of `t`; shares are stage time over the
  /// time of the enclosing "job" spans.
  void take_compile_spans(const Tracer& t);
  /// Copies the retarget-layer spans of `t`.
  void take_retarget_spans(const Tracer& t);
};

void add_layers(Report& report, const LayerStats& l);

/// Prints the counts that must repeat exactly for a seed, and the digest
/// of the program set.
void print_counts(std::size_t code_words, const LayerStats& l,
                  std::uint64_t program_set);

/// Prints traced minus untraced job latency (medians).
void print_overhead(const std::vector<double>& plain_ms,
                    const std::vector<double>& traced_ms);

/// Span name of one whole job (the parent of its layer spans).
inline constexpr std::string_view kSpanJob = "job";

}  // namespace perfbench
