// explore: the designer's design-space-exploration loop. A stream of
// testgen::generate_model variants (1-4 issue slots) is retargeted through
// a burstab::TargetCache in a fresh directory, and each variant compiles
// one testgen::generate_program kernel. About 1 in 4 jobs revisits a
// variant seen earlier in the same cache directory, so the cache is written
// on new variants and read on revisits.
#include <cstdio>
#include <filesystem>
#include <utility>

#include "builtin.h"
#include "layers.h"
#include "metrics.h"
#include "testgen/modelgen.h"
#include "testgen/programgen.h"
#include "workloads.h"

namespace perfbench {

using namespace record;

namespace {

// A seed draws kPool variants from the first kUniverse generated models:
// the sets of two seeds overlap, so the pool's size and shape vary little
// from seed to seed while its membership and order change.
constexpr std::uint64_t kUniverse = 256;
constexpr std::size_t kPool = 248;  // distinct (model, kernel) variants
constexpr int kKernelTries = 4;     // kernels tried before a model is dropped

struct Variant {
  testgen::GeneratedModel model;
  std::shared_ptr<const ir::Program> program;
  core::CompileOptions options;
  Output expected;
};

/// The spill window the oracle uses for generated models (their memories
/// are too small for the default 0x70 base).
core::CompileOptions compile_options_for(const testgen::GeneratedModel& m) {
  core::CompileOptions o;
  if (m.spill_slots > 0) {
    o.spill.scratch_base = m.spill_base;
    o.spill.scratch_slots = m.spill_slots;
  }
  return o;
}

sim::CheckOptions check_options_for(const core::CompileOptions& o) {
  sim::CheckOptions c;
  c.scratch_memory = o.spill.scratch_memory;
  c.scratch_base = o.spill.scratch_base;
  c.scratch_slots = o.spill.scratch_slots;
  return c;
}

/// Visits the universe's models in a seeded order and keeps, per model, the
/// first of kKernelTries kernels that compiles, until kPool are kept. Every
/// kept pair passes the semantic check and the traced-path check here,
/// outside any timing.
std::vector<Variant> build_pool(std::uint64_t seed, LayerStats& layers,
                                Report& report, std::uint64_t* program_set) {
  std::vector<Variant> pool;
  std::vector<std::string> texts;
  SemanticTally tally;
  std::size_t tried = 0, noncompiling = 0;
  double nodes_added = 0, nodes_end = 0;
  select::SelectScratch scratch;
  std::vector<std::uint64_t> universe(kUniverse);
  testgen::Rng rng(sub_seed(seed, 5));
  for (std::uint64_t i = 0; i < kUniverse; ++i) universe[i] = i;
  for (std::uint64_t i = kUniverse; i > 1; --i)
    std::swap(universe[i - 1], universe[rng.below(i)]);
  for (std::uint64_t model_seed : universe) {
    if (pool.size() == kPool) break;
    testgen::GeneratedModel gm = testgen::generate_model(model_seed);
    util::DiagnosticSink rdiags;
    std::optional<core::RetargetResult> target =
        core::Record::retarget(gm.hdl, core::RetargetOptions{}, rdiags);
    if (!target) {
      report.fail(gm.name + ": retarget failed: " + rdiags.first_error());
      continue;
    }
    const core::CompileOptions options = compile_options_for(gm);
    for (int k = 0; k < kKernelTries; ++k) {
      testgen::GeneratedProgram gp =
          testgen::generate_program(gm, static_cast<std::uint64_t>(k));
      ++tried;
      const std::size_t nodes0 = target->base->mgr->node_count();
      util::DiagnosticSink diags;
      std::optional<core::CompileResult> result =
          core::Compiler(*target).compile(gp.program, options, diags, &scratch);
      if (!result) {
        ++noncompiling;
        continue;
      }
      nodes_added += double(target->base->mgr->node_count() - nodes0);
      const std::string name = gm.name + "/" + gp.name;
      check_program(name, gp.program, *result, *target,
                    check_options_for(options), report, tally);

      Variant v;
      v.expected = output_of(*result);
      util::DiagnosticSink tdiags;
      CompileCounts counts;
      std::optional<core::CompileResult> traced = traced_compile(
          *target, gp.program, options, tdiags, &scratch, nullptr, &counts);
      if (!traced || output_of(*traced) != v.expected)
        report.fail(name + ": traced compile path differs from "
                    "Compiler::compile");
      layers.counts.add(counts);
      nodes_end += double(target->base->mgr->node_count());
      layers.templates += double(target->template_count());
      layers.rules += double(target->tree_grammar.rules().size());
      layers.states +=
          target->tables ? double(target->tables->stats().states) : 0;

      texts.push_back(gm.hdl);
      texts.push_back(gp.kernel);
      v.options = options;
      v.program = std::make_shared<const ir::Program>(std::move(gp.program));
      v.model = std::move(gm);
      pool.push_back(std::move(v));
      break;
    }
  }
  const double n = pool.empty() ? 1.0 : double(pool.size());
  layers.templates /= n;
  layers.rules /= n;
  layers.states /= n;
  layers.bdd_nodes_added_per_job = nodes_added / n;
  layers.bdd_nodes_end = nodes_end / n;
  *program_set = digest(texts);
  std::printf("explore: %zu variants kept; %zu of %zu generated kernels did "
              "not compile (dropped)\n",
              pool.size(), noncompiling, tried);
  tally.print();
  return pool;
}

struct ExploreRun {
  TimedRun run;
  std::size_t cache_hits = 0;
};

/// The exploration stream for `seconds` of job time. Epoch by epoch: a
/// fresh cache directory, the pool in a seeded order, and before each new
/// variant a 1-in-4 chance of revisiting one already seen in this epoch.
/// A job is retarget + compile; output checks and the between-epoch cache
/// cleanup are outside the timed interval.
ExploreRun explore_loop(const std::vector<Variant>& pool, std::uint64_t seed,
                        double seconds, const std::string& work_dir,
                        Tracer* tracer, Report& report) {
  ExploreRun loop;
  testgen::Rng rng(sub_seed(seed, 4));
  select::SelectScratch scratch;
  const auto budget_ns = static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t untimed_ns = 0;
  double check_cpu = 0;
  const CpuTimes cpu0 = cpu_times();
  const std::int64_t start = now_ns();
  auto timed_ns = [&] { return now_ns() - start - untimed_ns; };
  for (int epoch = 0; timed_ns() < budget_ns && !pool.empty(); ++epoch) {
    core::RetargetOptions ropts;
    ropts.use_target_cache = true;
    ropts.cache_dir = work_dir + "/explore-epoch-" + std::to_string(epoch);
    std::vector<std::size_t> order(pool.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    std::vector<std::size_t> seen;
    std::size_t next = 0;
    while (timed_ns() < budget_ns) {
      std::size_t v;
      if (!seen.empty() && rng.chance(1, 4)) {
        v = seen[rng.below(seen.size())];
      } else if (next < order.size()) {
        v = order[next++];
        seen.push_back(v);
      } else {
        break;
      }
      const Variant& var = pool[v];
      util::DiagnosticSink diags;
      std::optional<core::RetargetResult> target;
      std::optional<core::CompileResult> result;
      const std::int64_t t0 = now_ns();
      if (tracer) {
        Scope job(tracer, kSpanJob);
        target = traced_retarget(var.model.hdl, ropts, diags, tracer);
        if (target)
          result = traced_compile(*target, *var.program, var.options, diags,
                                  &scratch, tracer);
      } else {
        target = core::Record::retarget(var.model.hdl, ropts, diags);
        if (target)
          result = core::Compiler(*target).compile(*var.program, var.options,
                                                   diags, &scratch);
      }
      const std::int64_t t1 = now_ns();
      const double c0 = thread_cpu_s();
      loop.run.add(ms_between(t0, t1),
                   static_cast<double>(t1 - start - untimed_ns) / 1e9,
                   cpu_since(cpu0) - check_cpu,
                   static_cast<std::size_t>(epoch));
      report.attempt();
      if (target && target->cache_hit) ++loop.cache_hits;
      if (!result || output_of(*result) != var.expected) {
        report.count_failed();
        report.fail(var.model.name + ": timed retarget+compile differs from "
                                     "the verified one: " +
                    diags.first_error());
      }
      result.reset();
      target.reset();
      check_cpu += thread_cpu_s() - c0;
      untimed_ns += now_ns() - t1;
    }
    const std::int64_t c0 = now_ns();
    std::error_code ec;
    std::filesystem::remove_all(ropts.cache_dir, ec);
    untimed_ns += now_ns() - c0;
  }
  loop.run.wall_s = static_cast<double>(timed_ns()) / 1e9;
  loop.run.sys_share = sys_share_since(cpu0);
  return loop;
}

}  // namespace

void run_explore(const Args& args, Report& report) {
  LayerStats layers;
  std::uint64_t program_set = 0;
  const std::vector<Variant> pool = build_pool(args.seed, layers, report,
                                               &program_set);
  if (pool.empty()) {
    report.fail("no generated variant compiles");
    return;
  }

  // Set-up, repeated: retarget every variant (no cache) and compile its
  // kernel once.
  EndToEnd e2e;
  select::SelectScratch scratch;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    std::size_t mismatches = 0;
    for (const Variant& v : pool) {
      util::DiagnosticSink diags;
      std::optional<core::RetargetResult> target =
          core::Record::retarget(v.model.hdl, core::RetargetOptions{}, diags);
      std::optional<core::CompileResult> result;
      if (target)
        result = core::Compiler(*target).compile(*v.program, v.options, diags,
                                                 &scratch);
      // Rendering the output is cheap next to a retarget; it stays inside
      // the set-up time.
      if (!result || output_of(*result) != v.expected) ++mismatches;
    }
    e2e.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
    if (mismatches)
      report.fail(std::to_string(mismatches) +
                  " set-up compiles differ from the verified ones");
  }
  for (const Variant& v : pool) e2e.code_words += v.expected.words;
  print_counts(e2e.code_words, layers, program_set);

  if (!args.trace) {
    ExploreRun loop = explore_loop(pool, args.seed, args.seconds,
                                   args.work_dir, nullptr, report);
    std::printf("cache hits: %zu of %zu jobs\n", loop.cache_hits,
                loop.run.job_ms.size());
    e2e.run = std::move(loop.run);
    add_end_to_end(report, e2e);
    return;
  }

  const ExploreRun plain = explore_loop(pool, args.seed, args.seconds / 2,
                                       args.work_dir, nullptr, report);
  Tracer tracer;
  const ExploreRun traced = explore_loop(pool, args.seed, args.seconds / 2,
                                        args.work_dir, &tracer, report);
  layers.take_compile_spans(tracer);
  layers.take_retarget_spans(tracer);
  const std::vector<double>& traced_ms = traced.run.job_ms;
  layers.cache_hit_share =
      traced_ms.empty() ? 0
                        : double(traced.cache_hits) / double(traced_ms.size());
  layers.sys_cpu_share = plain.run.sys_share;
  layers.trace_overhead_ms = median(traced_ms) - median(plain.run.job_ms);
  print_overhead(plain.run.job_ms, traced_ms);
  model_probe(retarget_builtins(report), layers, report);
  add_layers(report, layers);
  if (!args.trace_out.empty()) tracer.write_chrome(args.trace_out);
}

}  // namespace perfbench
