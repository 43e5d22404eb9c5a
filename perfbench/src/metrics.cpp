#include "metrics.h"

#include <algorithm>
#include <cstdio>

#include "inputs.h"

namespace perfbench {

void add_end_to_end(Report& report, const EndToEnd& e) {
  const TimedRun& run = e.run;
  // Complete cycles only: the one the run ended in is cut short.
  const std::size_t cycles = run.cycle.empty() ? 0 : run.cycle.back();
  const std::size_t segments =
      std::min<std::size_t>(kSegments, std::max<std::size_t>(cycles, 1));
  std::vector<double> p50, p99, rate, cpu_per_job;
  std::size_t smallest = run.job_ms.size();
  std::size_t job = 0;
  double t_before = 0, cpu_before = 0;
  for (std::size_t k = 0; k < segments; ++k) {
    const std::size_t last_cycle = cycles * (k + 1) / segments;  // exclusive
    std::vector<double> lat;
    double t_end = t_before, cpu_end = cpu_before;
    for (; job < run.job_ms.size() &&
           (run.cycle[job] < last_cycle || cycles == 0);
         ++job) {
      lat.push_back(run.job_ms[job]);
      t_end = run.end_s[job];
      cpu_end = run.cpu_s[job];
    }
    smallest = std::min(smallest, lat.size());
    if (lat.empty() || t_end <= t_before) continue;
    p50.push_back(quantile(lat, 0.50));
    p99.push_back(quantile(lat, 0.99));
    rate.push_back(double(lat.size()) / (t_end - t_before));
    cpu_per_job.push_back((cpu_end - cpu_before) * 1e3 / double(lat.size()));
    t_before = t_end;
    cpu_before = cpu_end;
  }
  auto row = [](const char* what, const std::vector<double>& v) {
    std::printf("segment %s:", what);
    for (double x : v) std::printf(" %.4f", x);
    std::printf("\n");
  };
  std::printf("timed jobs: %zu in %.3f s, %zu segments of >= %zu jobs; "
              "whole run: p50 %.4f ms, p99 %.4f ms, %.1f jobs/s, %.1f%% "
              "system CPU\n",
              run.job_ms.size(), run.wall_s, segments, smallest,
              quantile(run.job_ms, 0.50), quantile(run.job_ms, 0.99),
              run.wall_s > 0 ? double(run.job_ms.size()) / run.wall_s : 0,
              run.sys_share * 100);
  row("p50 ms", p50);
  row("p99 ms", p99);
  row("jobs/s", rate);
  row("cpu ms/job", cpu_per_job);
  report.add("setup_s", median(e.setup_s), "s");
  report.add("job_ms_p50", quantile(p50, 0.25), "ms");
  report.add("job_ms_p99", quantile(p99, 0.25), "ms");
  report.add("jobs_per_s", quantile(rate, 0.75), "1/s");
  const double attempted = static_cast<double>(report.attempted());
  report.add("ok_share",
             attempted > 0
                 ? (attempted - static_cast<double>(report.failed())) /
                       attempted
                 : 0,
             "share");
  report.add("code_words", static_cast<double>(e.code_words), "words");
  report.add("cpu_ms_per_job", quantile(cpu_per_job, 0.25), "ms");
  report.add("peak_rss_mb", peak_rss_mb(), "MiB");
}

void CountTotals::add(const CompileCounts& c) {
  ++programs;
  sum.nodes_labelled += c.nodes_labelled;
  sum.spills += c.spills;
  sum.words += c.words;
  sum.multi_rt_words += c.multi_rt_words;
  sum.pairs_rejected += c.pairs_rejected;
  sum.suppressed += c.suppressed;
}

void LayerStats::take_compile_spans(const Tracer& t) {
  select_ms = t.durations_ms(kSpanSelect);
  spill_ms = t.durations_ms(kSpanSpill);
  compact_ms = t.durations_ms(kSpanCompact);
  encode_ms = t.durations_ms(kSpanEncode);
  const double job = t.total_ms(kSpanJob);
  if (job <= 0) return;
  select_share = t.total_ms(kSpanSelect) / job;
  compact_share = t.total_ms(kSpanCompact) / job;
  emit_share = t.total_ms(kSpanEncode) / job;
}

void LayerStats::take_retarget_spans(const Tracer& t) {
  parse_ms = t.durations_ms(kSpanParse);
  elaborate_ms = t.durations_ms(kSpanElaborate);
  extract_ms = t.durations_ms(kSpanExtract);
  extend_ms = t.durations_ms(kSpanExtend);
  grammar_ms = t.durations_ms(kSpanGrammar);
  tables_ms = t.durations_ms(kSpanTables);
  store_ms = t.durations_ms(kSpanStore);
  load_ms = t.durations_ms(kSpanLoad);
}

namespace {

double per_program(const CountTotals& t, std::size_t value) {
  return t.programs ? double(value) / double(t.programs) : 0;
}

}  // namespace

void print_counts(std::size_t code_words, const LayerStats& l,
                  std::uint64_t program_set) {
  std::printf("counts: program_set=%016llx code_words=%zu "
              "select.nodes_per_job=%.6f compact.words_per_job=%.6f "
              "bdd.nodes_added_per_job=%.6f\n",
              static_cast<unsigned long long>(program_set), code_words,
              per_program(l.counts, l.counts.sum.nodes_labelled),
              per_program(l.counts, l.counts.sum.words),
              l.bdd_nodes_added_per_job);
}

void print_overhead(const std::vector<double>& plain_ms,
                    const std::vector<double>& traced_ms) {
  const double plain = median(plain_ms), traced = median(traced_ms);
  std::printf("tracing overhead: job p50 %.4f ms untraced (%zu jobs), "
              "%.4f ms traced (%zu jobs): %+.4f ms (%+.1f%%)\n",
              plain, plain_ms.size(), traced, traced_ms.size(),
              traced - plain, plain > 0 ? (traced - plain) / plain * 100 : 0);
}

void add_layers(Report& report, const LayerStats& l) {
  const double n = l.counts.programs ? double(l.counts.programs) : 1.0;
  const CompileCounts& c = l.counts.sum;
  auto p50 = [](const std::vector<double>& v) { return median(v); };

  report.add("select.ms_p50", p50(l.select_ms), "ms");
  report.add("select.share", l.select_share, "share");
  report.add("select.nodes_per_job", double(c.nodes_labelled) / n, "nodes");
  report.add("sched.spill_ms_p50", p50(l.spill_ms), "ms");
  report.add("sched.spills_per_job", double(c.spills) / n, "count");
  report.add("compact.ms_p50", p50(l.compact_ms), "ms");
  report.add("compact.share", l.compact_share, "share");
  report.add("compact.words_per_job", double(c.words) / n, "words");
  report.add("compact.packed_share",
             c.words ? double(c.multi_rt_words) / double(c.words) : 0,
             "share");
  report.add("compact.pairs_rejected_per_job", double(c.pairs_rejected) / n,
             "count");
  report.add("emit.encode_ms_p50", p50(l.encode_ms), "ms");
  report.add("emit.share", l.emit_share, "share");
  report.add("emit.suppressed_per_job", double(c.suppressed) / n, "count");
  report.add("bdd.nodes_added_per_job", l.bdd_nodes_added_per_job, "nodes");
  report.add("bdd.nodes_end", l.bdd_nodes_end, "nodes");

  report.add("ir.frontend_ms_p50", p50(l.frontend_ms), "ms");
  report.add("service.queue_ms_p50", p50(l.queue_ms), "ms");
  report.add("service.queue_ms_p99", quantile(l.queue_ms, 0.99), "ms");
  report.add("service.target_ms_p50", p50(l.target_ms), "ms");
  report.add("service.compile_ms_p50", p50(l.compile_ms), "ms");
  report.add("net.wire_ms_p50", p50(l.wire_ms), "ms");
  report.add("service.compile_inflation", l.compile_inflation, "ratio");
  report.add("process.sys_cpu_share", l.sys_cpu_share, "share");

  report.add("hdl.parse_ms_p50", p50(l.parse_ms), "ms");
  report.add("netlist.elaborate_ms_p50", p50(l.elaborate_ms), "ms");
  report.add("ise.extract_ms_p50", p50(l.extract_ms), "ms");
  report.add("ise.templates", l.templates, "templates");
  report.add("rtl.extend_ms_p50", p50(l.extend_ms), "ms");
  report.add("grammar.build_ms_p50", p50(l.grammar_ms), "ms");
  report.add("grammar.rules", l.rules, "rules");
  report.add("burstab.tables_ms_p50", p50(l.tables_ms), "ms");
  report.add("burstab.states", l.states, "states");
  report.add("burstab.cache_store_ms_p50", p50(l.store_ms), "ms");
  report.add("burstab.cache_load_ms_p50", p50(l.load_ms), "ms");
  report.add("burstab.cache_hit_share", l.cache_hit_share, "share");

  static constexpr const char* kStage[4] = {
      "select.ms_p50", "sched.spill_ms_p50", "compact.ms_p50",
      "emit.encode_ms_p50"};
  for (int s = 0; s < 4; ++s)
    for (const std::string& model : builtin_models()) {
      auto it = l.per_model.find(model);
      report.add(std::string(kStage[s]) + "." + model,
                 it == l.per_model.end() ? 0 : it->second[s], "ms");
    }
  report.add("trace.overhead_ms_p50", l.trace_overhead_ms, "ms");
}

}  // namespace perfbench
