#include "core/compiler.h"

#include "obs/coverage.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace record::core {

namespace {

/// Per-compile counters, resolved once: a registry lookup takes its mutex,
/// and every compile bumps an outcome counter, the encoder's two and
/// compaction's four.
struct CompileCounters {
  obs::Counter& uncovered = obs::metrics().counter("compile.uncovered");
  obs::Counter& unrepairable_clobber =
      obs::metrics().counter("compile.unrepairable_clobber");
  obs::Counter& failed = obs::metrics().counter("compile.failed");
  obs::Counter& ok = obs::metrics().counter("compile.ok");
  /// Suppression terms the encoder's cubes proved no-ops, and the rest,
  /// left to the BDD: how much suppression work the cube filter removed.
  obs::Counter& terms_proven_noop =
      obs::metrics().counter("emit.terms_proven_noop");
  obs::Counter& terms_conjoined =
      obs::metrics().counter("emit.terms_conjoined");
  /// What compaction's per-target facts decided: words that skipped mode
  /// handling or went through the BDD for it, and candidate pairs rejected
  /// by cubes or left to a BDD conjunction.
  obs::Counter& words_mode_free =
      obs::metrics().counter("compact.words_mode_free");
  obs::Counter& words_mode_checked =
      obs::metrics().counter("compact.words_mode_checked");
  obs::Counter& pairs_cube_rejected =
      obs::metrics().counter("compact.pairs_cube_rejected");
  obs::Counter& pairs_conjoined =
      obs::metrics().counter("compact.pairs_conjoined");
};

CompileCounters& counters() {
  static CompileCounters c;
  return c;
}

}  // namespace

std::optional<CompileResult> Compiler::compile(
    const ir::Program& prog, const CompileOptions& options,
    util::DiagnosticSink& diags, select::SelectScratch* scratch) const {
  if (!target_ || !target_->base) {
    diags.error({}, "compiler constructed from an empty retarget result");
    return std::nullopt;
  }
  obs::Span span("compile");
  CompileResult result;

  const burstab::TargetTables* tables = nullptr;
  if (options.engine != select::Engine::kInterpreter) {
    tables = target_->tables.get();
    if (!tables && options.engine == select::Engine::kTables)
      diags.warning({}, "table engine requested but the retarget result "
                        "carries no tables; selecting with the interpreter");
  }
  // Per-stage spans so a traced compile decomposes the same way JobTimes
  // does: selection (label + flatten inside the selector), spill repair,
  // compaction, encoding.
  // Coverage attach: one relaxed enabled() load per compile. The map factory
  // runs once per target (rule-name rendering is paid exactly once); the
  // arrays carry headroom for dynamic table growth, with late out-of-range
  // ids absorbed by the overflow counters.
  obs::CoverageMap* cov = nullptr;
  if (obs::coverage().enabled()) {
    const grammar::TreeGrammar& g = target_->tree_grammar;
    const burstab::TargetTables* cov_tables = tables;
    cov = &obs::coverage().map_for(target_->processor, [&g, cov_tables]() {
      obs::CoverageMap::Config cfg;
      cfg.rules = g.rules().size();
      burstab::TableStats st;
      if (cov_tables) st = cov_tables->stats();
      cfg.states = st.states * 4 + 1024;
      cfg.transitions = st.transitions * 4 + 4096;
      cfg.rule_names.reserve(cfg.rules);
      for (const grammar::Rule& r : g.rules())
        cfg.rule_names.push_back(grammar::rule_to_string(g, r));
      return cfg;
    });
  }

  std::optional<obs::Span> stage;
  stage.emplace("compile.select");
  select::CodeSelector selector(*target_->base, target_->tree_grammar, diags,
                                tables, scratch);
  selector.set_coverage(cov);
  if (options.explain) selector.set_explain(options.explain);
  std::optional<select::SelectionResult> sel = selector.select(prog);
  if (!sel) {
    counters().uncovered.add(1);
    return std::nullopt;
  }
  result.selection = std::move(*sel);

  if (options.insert_spills) {
    stage.emplace("compile.spill");
    result.spill_stats =
        sched::insert_spills(result.selection, prog, *target_->base,
                             target_->tree_grammar, options.spill, diags);
    if (result.spill_stats.unresolved > 0) {
      // A clobber the spiller cannot repair means the emitted code would
      // compute wrong values (the RT-level simulator demonstrates it);
      // failing honestly beats emitting known-bad code with a warning.
      diags.error({}, "unrepairable register clobber; refusing to emit "
                      "incorrect code (see warnings)");
      counters().unrepairable_clobber.add(1);
      return std::nullopt;
    }
  }

  stage.emplace("compile.compact");
  result.compacted = compact::compact(result.selection, *target_->base,
                                      options.compact, diags);
  stage.emplace("compile.encode");
  result.encoded =
      emit::encode(result.compacted.program, *target_->base, diags);
  stage.reset();
  {
    const emit::EncodeStats& es = result.encoded.stats;
    counters().terms_proven_noop.add(es.proven_noop);
    counters().terms_conjoined.add(es.suppressed + es.unsuppressible -
                                   es.proven_noop);
    const compact::CompactStats& cs = result.compacted.stats;
    counters().words_mode_free.add(cs.words_mode_free);
    counters().words_mode_checked.add(cs.words_mode_checked);
    counters().pairs_cube_rejected.add(cs.pairs_cube_rejected);
    counters().pairs_conjoined.add(cs.pairs_conjoined);
  }
  if (cov) {
    const sched::SpillStats& sp = result.spill_stats;
    cov->record_variant(obs::CoverageVariant::kSpillPark,
                        sp.spills_inserted);
    cov->record_variant(obs::CoverageVariant::kSpillCallerSave,
                        sp.live_saves);
    cov->record_variant(obs::CoverageVariant::kSpillGuardWrap,
                        sp.guard_wraps);
    const compact::CompactStats& cs = result.compacted.stats;
    // Merges = RTs folded into shared words (mode sets inflate words, so
    // subtract them from the packing delta first).
    const std::size_t emitted =
        cs.words > cs.mode_sets_inserted ? cs.words - cs.mode_sets_inserted
                                         : cs.words;
    cov->record_variant(obs::CoverageVariant::kCompactMerge,
                        cs.input_rts > emitted ? cs.input_rts - emitted : 0);
    cov->record_variant(obs::CoverageVariant::kCompactModeSet,
                        cs.mode_sets_inserted);
  }
  if (!diags.ok()) {
    counters().failed.add(1);
    return std::nullopt;
  }
  counters().ok.add(1);
  span.note("processor", target_->processor);
  span.note("words", static_cast<std::int64_t>(result.code_size()));
  span.note("rts", static_cast<std::int64_t>(result.selection.total_rts));
  span.note("engine", select::to_string(selector.engine()));
  return result;
}

}  // namespace record::core
