#include "builtin.h"

#include <cstdio>
#include <filesystem>

#include "burstab/tables.h"
#include "layers.h"
#include "models/models.h"
#include "models/workload.h"

namespace perfbench {

using namespace record;

Targets retarget_builtins(Report& report) {
  Targets targets;
  for (const std::string& model : builtin_models()) {
    util::DiagnosticSink diags;
    std::optional<core::RetargetResult> r =
        core::Record::retarget_model(model, core::RetargetOptions{}, diags);
    if (!r) {
      report.fail("retarget " + model + ": " + diags.first_error());
      continue;
    }
    targets[model] = std::make_shared<const core::RetargetResult>(
        std::move(*r));
  }
  return targets;
}

std::size_t bdd_nodes(const Targets& targets) {
  std::size_t n = 0;
  for (const auto& [name, t] : targets) n += t->base->mgr->node_count();
  return n;
}

std::vector<std::optional<core::CompileResult>> compile_all(
    const Targets& targets, const std::vector<ProgramSpec>& mix,
    select::SelectScratch& scratch, Report& report) {
  std::vector<std::optional<core::CompileResult>> results(mix.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    auto t = targets.find(mix[i].model);
    if (t == targets.end()) continue;  // its retarget failed (reported)
    util::DiagnosticSink diags;
    results[i] = core::Compiler(*t->second).compile(
        *mix[i].program, core::CompileOptions{}, diags, &scratch);
    if (!results[i])
      report.fail(mix[i].name + ": compile failed: " + diags.first_error());
  }
  return results;
}

std::vector<Output> outputs_of(
    const std::vector<std::optional<core::CompileResult>>& results) {
  std::vector<Output> out;
  out.reserve(results.size());
  for (const auto& r : results) out.push_back(r ? output_of(*r) : Output{});
  return out;
}

void verify_mix(const Targets& targets, const std::vector<ProgramSpec>& mix,
                const std::vector<std::optional<core::CompileResult>>& results,
                const std::vector<Output>& outputs, Report& report,
                CountTotals& counts) {
  SemanticTally tally;
  select::SelectScratch scratch;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    if (!results[i]) continue;
    const core::RetargetResult& target = *targets.at(mix[i].model);
    check_program(mix[i].name, *mix[i].program, *results[i], target, {},
                  report, tally);

    util::DiagnosticSink diags;
    CompileCounts c;
    std::optional<core::CompileResult> traced =
        traced_compile(target, *mix[i].program, core::CompileOptions{}, diags,
                       &scratch, nullptr, &c);
    if (!traced) {
      report.fail(mix[i].name + ": traced compile failed: " +
                  diags.first_error());
      continue;
    }
    if (output_of(*traced) != outputs[i])
      report.fail(mix[i].name + ": traced compile path differs from "
                  "Compiler::compile");
    counts.add(c);
  }
  tally.print();
}

void model_probe(const Targets& targets, LayerStats& layers, Report& report) {
  constexpr int kReps = 50;
  select::SelectScratch scratch;
  std::printf("\nchain32 stage times per built-in model, us per compile "
              "(mean of %d traced compiles):\n", kReps);
  std::printf("%-11s %9s %9s %9s %9s %9s\n", "model", "compile", "select",
              "spill", "compact", "encode");
  for (const models::ChainShape& s : models::kChainShapes) {
    auto t = targets.find(s.model);
    if (t == targets.end()) continue;
    const ir::Program prog = models::chain_program(s, 32);
    Tracer tracer;
    for (int rep = 0; rep < kReps; ++rep) {
      Scope job(&tracer, kSpanJob);
      util::DiagnosticSink diags;
      if (!traced_compile(*t->second, prog, core::CompileOptions{}, diags,
                          &scratch, &tracer)) {
        report.fail(std::string(s.model) + "_chain32: traced compile failed");
        break;
      }
    }
    const std::string_view stages[4] = {kSpanSelect, kSpanSpill, kSpanCompact,
                                        kSpanEncode};
    std::array<double, 4>& p50 = layers.per_model[s.model];
    double us[4];
    for (int k = 0; k < 4; ++k) {
      p50[k] = median(tracer.durations_ms(stages[k]));
      us[k] = tracer.total_ms(stages[k]) * 1e3 / kReps;
    }
    std::printf("%-11s %9.0f %9.0f %9.0f %9.0f %9.0f\n", s.model,
                tracer.total_ms(kSpanJob) * 1e3 / kReps, us[0], us[1], us[2],
                us[3]);
  }
  std::printf("\n");
}

void retarget_probe(const std::string& work_dir, LayerStats& layers,
                    Report& report) {
  constexpr int kReps = 5;
  Tracer tracer;
  std::size_t retargets = 0, hits = 0, cold = 0;
  double templates = 0, rules = 0, states = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::string dir =
        work_dir + "/retarget-probe-" + std::to_string(rep);
    core::RetargetOptions options;
    options.use_target_cache = true;
    options.cache_dir = dir;
    for (const std::string& model : builtin_models()) {
      for (int pass = 0; pass < 2; ++pass) {  // cold + store, then load
        util::DiagnosticSink diags;
        std::optional<core::RetargetResult> r = traced_retarget(
            models::model_source(model), options, diags, &tracer);
        ++retargets;
        if (!r) {
          report.fail("traced retarget " + model + ": " +
                      diags.first_error());
          break;
        }
        if (r->cache_hit) {
          ++hits;
          continue;
        }
        ++cold;
        templates += double(r->template_count());
        rules += double(r->tree_grammar.rules().size());
        states += r->tables ? double(r->tables->stats().states) : 0;
      }
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  layers.take_retarget_spans(tracer);
  if (cold) {
    layers.templates = templates / double(cold);
    layers.rules = rules / double(cold);
    layers.states = states / double(cold);
  }
  layers.cache_hit_share = retargets ? double(hits) / double(retargets) : 0;
}

}  // namespace perfbench
