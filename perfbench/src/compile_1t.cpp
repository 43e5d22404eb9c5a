// compile_1t: one thread calls Compiler::compile on warm built-in targets
// over the built-in mix, closed loop.
#include <cstdio>
#include <utility>

#include "builtin.h"
#include "layers.h"
#include "metrics.h"
#include "testgen/modelgen.h"
#include "workloads.h"

namespace perfbench {

using namespace record;

namespace {

/// Seeded job order over `n` distinct programs.
std::vector<std::size_t> job_order(std::uint64_t seed, std::size_t n) {
  // Cycles that each hold every program once, in a seeded order: every
  // stretch of the run sees the same mix.
  constexpr int kCycles = 64;
  testgen::Rng rng(sub_seed(seed, 2));
  std::vector<std::size_t> order;
  for (int c = 0; c < kCycles; ++c) {
    const std::size_t base = order.size();
    for (std::size_t i = 0; i < n; ++i) order.push_back(i);
    for (std::size_t i = n; i > 1; --i)
      std::swap(order[base + i - 1], order[base + rng.below(i)]);
  }
  return order;
}

/// Closed loop for `seconds` of job time. Each job's output is compared
/// with the verified one; the comparison is outside the timed interval.
TimedRun compile_loop(const Targets& targets,
                      const std::vector<ProgramSpec>& mix,
                      const std::vector<Output>& expected,
                      const std::vector<std::size_t>& order, double seconds,
                      Tracer* tracer, Report& report) {
  std::vector<const core::RetargetResult*> target_of;
  for (const ProgramSpec& p : mix)
    target_of.push_back(targets.at(p.model).get());
  TimedRun loop;
  select::SelectScratch scratch;
  const core::CompileOptions options;
  const auto budget_ns = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t check_ns = 0;
  double check_cpu = 0;
  const CpuTimes cpu0 = cpu_times();
  const std::int64_t start = now_ns();
  for (std::size_t n = 0; now_ns() - start - check_ns < budget_ns; ++n) {
    const std::size_t p = order[n % order.size()];
    util::DiagnosticSink diags;
    std::optional<core::CompileResult> r;
    const std::int64_t t0 = now_ns();
    if (tracer) {
      Scope job(tracer, kSpanJob);
      r = traced_compile(*target_of[p], *mix[p].program, options, diags,
                         &scratch, tracer);
    } else {
      r = core::Compiler(*target_of[p])
              .compile(*mix[p].program, options, diags, &scratch);
    }
    const std::int64_t t1 = now_ns();
    const double c0 = thread_cpu_s();
    loop.add(ms_between(t0, t1),
             static_cast<double>(t1 - start - check_ns) / 1e9,
             cpu_since(cpu0) - check_cpu, n / mix.size());
    report.attempt();
    if (!r || output_of(*r) != expected[p]) {
      report.count_failed();
      report.fail(mix[p].name + ": timed compile differs from the verified "
                                "one");
    }
    check_cpu += thread_cpu_s() - c0;
    check_ns += now_ns() - t1;
  }
  loop.wall_s = static_cast<double>(now_ns() - start - check_ns) / 1e9;
  loop.sys_share = sys_share_since(cpu0);
  return loop;
}

}  // namespace

void run_compile_1t(const Args& args, Report& report) {
  const std::vector<ProgramSpec> mix = builtin_mix(args.seed);
  std::vector<std::string> texts;
  for (const ProgramSpec& p : mix) texts.push_back(p.kernel);
  const std::uint64_t program_set = digest(texts);
  std::printf("compile_1t: %zu distinct programs\n", mix.size());

  // Set-up, repeated: retarget the six models, then compile every distinct
  // program once (warm-up). The last repetition's targets are timed.
  EndToEnd e2e;
  Targets targets;
  std::vector<std::optional<core::CompileResult>> results;
  std::vector<Output> expected;
  double bdd_added = 0;
  select::SelectScratch scratch;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    Targets t = retarget_builtins(report);
    const std::size_t nodes0 = bdd_nodes(t);
    auto res = compile_all(t, mix, scratch, report);
    e2e.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    std::vector<Output> outs = outputs_of(res);
    if (rep == 0) expected = outs;
    else if (outs != expected)
      report.fail("set-up repetitions compiled different outputs");
    bdd_added = double(bdd_nodes(t) - nodes0) / double(mix.size());
    results = std::move(res);
    targets = std::move(t);
  }
  for (const Output& o : expected) e2e.code_words += o.words;

  LayerStats layers;
  verify_mix(targets, mix, results, expected, report, layers.counts);
  layers.bdd_nodes_added_per_job = bdd_added;
  print_counts(e2e.code_words, layers, program_set);
  const std::vector<std::size_t> order = job_order(args.seed, mix.size());

  if (!args.trace) {
    e2e.run = compile_loop(targets, mix, expected, order, args.seconds,
                           nullptr, report);
    add_end_to_end(report, e2e);
    return;
  }

  // Traced run: the same loop untraced, then through the traced path.
  const TimedRun plain = compile_loop(targets, mix, expected, order,
                                     args.seconds / 2, nullptr, report);
  Tracer tracer;
  const TimedRun traced = compile_loop(targets, mix, expected, order,
                                      args.seconds / 2, &tracer, report);
  layers.take_compile_spans(tracer);
  layers.trace_overhead_ms = median(traced.job_ms) - median(plain.job_ms);
  layers.sys_cpu_share = plain.sys_share;
  layers.bdd_nodes_end = double(bdd_nodes(targets));
  print_overhead(plain.job_ms, traced.job_ms);
  model_probe(targets, layers, report);
  retarget_probe(args.work_dir, layers, report);
  add_layers(report, layers);
  if (!args.trace_out.empty()) tracer.write_chrome(args.trace_out);
}

}  // namespace perfbench
