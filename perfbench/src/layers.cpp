#include "layers.h"

#include <memory>
#include <utility>

#include "burstab/cache.h"
#include "hdl/parser.h"
#include "hdl/sema.h"
#include "netlist/netlist.h"

namespace perfbench {

using namespace record;

std::optional<core::CompileResult> traced_compile(
    const core::RetargetResult& target, const ir::Program& prog,
    const core::CompileOptions& options, util::DiagnosticSink& diags,
    select::SelectScratch* scratch, Tracer* tracer, CompileCounts* counts) {
  const burstab::TargetTables* tables =
      options.engine != select::Engine::kInterpreter ? target.tables.get()
                                                     : nullptr;
  core::CompileResult result;
  {
    Scope span(tracer, kSpanSelect);
    select::CodeSelector selector(*target.base, target.tree_grammar, diags,
                                  tables, scratch);
    std::optional<select::SelectionResult> sel = selector.select(prog);
    if (counts) counts->nodes_labelled = selector.stats().nodes_labelled;
    if (!sel) return std::nullopt;
    result.selection = std::move(*sel);
  }
  if (options.insert_spills) {
    Scope span(tracer, kSpanSpill);
    result.spill_stats =
        sched::insert_spills(result.selection, prog, *target.base,
                             target.tree_grammar, options.spill, diags);
    if (result.spill_stats.unresolved > 0) {
      diags.error({}, "unrepairable register clobber");
      return std::nullopt;
    }
  }
  {
    Scope span(tracer, kSpanCompact);
    result.compacted = compact::compact(result.selection, *target.base,
                                        options.compact, diags);
  }
  {
    Scope span(tracer, kSpanEncode);
    result.encoded =
        emit::encode(result.compacted.program, *target.base, diags);
  }
  if (!diags.ok()) return std::nullopt;
  if (counts) {
    counts->spills =
        result.spill_stats.spills_inserted + result.spill_stats.live_saves;
    counts->words = result.compacted.stats.words;
    counts->multi_rt_words = result.compacted.stats.multi_rt_words;
    counts->pairs_rejected = result.compacted.stats.pairs_rejected_encoding;
    counts->suppressed = result.encoded.stats.suppressed;
  }
  return result;
}

std::optional<core::RetargetResult> traced_retarget(
    std::string_view hdl_source, const core::RetargetOptions& options,
    util::DiagnosticSink& diags, Tracer* tracer) {
  core::RetargetResult result;

  std::optional<burstab::TargetCache> cache;
  std::uint64_t key = 0;
  if (options.use_target_cache && !options.extra_rewrites) {
    cache.emplace(options.cache_dir);
    key = burstab::TargetCache::key_of(hdl_source,
                                       core::options_digest(options));
    std::optional<burstab::TargetArtifacts> art;
    {
      Scope span(tracer, kSpanLoad);
      art = cache->load(key);
    }
    if (art) {
      result.processor = std::move(art->processor);
      result.tree_grammar = std::move(art->grammar);
      result.tables = std::move(art->tables);
      result.base =
          std::make_shared<const rtl::TemplateBase>(std::move(art->base));
      result.extract_stats = art->extract_stats;
      result.extend_stats = art->extend_stats;
      result.grammar_stats = art->grammar_stats;
      result.cache_hit = true;
      if (!result.tables && options.build_tables) {
        Scope span(tracer, kSpanTables);
        result.tables = std::make_shared<burstab::TargetTables>(
            result.tree_grammar, options.tables);
      }
      return result;
    }
  }

  std::optional<netlist::Netlist> nl;
  {
    std::optional<hdl::ProcessorModel> model;
    {
      Scope span(tracer, kSpanParse);
      model = hdl::parse(hdl_source, diags);
      if (!model || !hdl::check_model(*model, diags)) return std::nullopt;
    }
    result.processor = model->name;
    Scope span(tracer, kSpanElaborate);
    nl = netlist::elaborate(std::move(*model), diags);
    if (!nl) return std::nullopt;
  }

  std::optional<ise::ExtractResult> extraction;
  {
    Scope span(tracer, kSpanExtract);
    extraction.emplace(ise::extract(*nl, options.extract, diags));
    result.extract_stats = extraction->stats;
  }
  {
    Scope span(tracer, kSpanExtend);
    rtl::ExtendOptions ext;
    ext.commutativity = options.commutativity;
    rtl::RewriteLibrary standard = rtl::RewriteLibrary::standard();
    if (options.standard_rewrites) ext.rewrites = &standard;
    result.extend_stats = rtl::extend_template_base(extraction->base, ext);
    if (options.extra_rewrites) {
      rtl::ExtendOptions extra;
      extra.commutativity = false;
      extra.rewrites = options.extra_rewrites;
      result.extend_stats.rewrite_added +=
          rtl::extend_template_base(extraction->base, extra).rewrite_added;
    }
  }
  {
    Scope span(tracer, kSpanGrammar);
    grammar::BuiltGrammar built =
        grammar::build_grammar(extraction->base, options.grammar, diags);
    result.grammar_stats = built.stats;
    result.tree_grammar = std::move(built.grammar);
  }
  result.base =
      std::make_shared<const rtl::TemplateBase>(std::move(extraction->base));
  if (options.build_tables) {
    Scope span(tracer, kSpanTables);
    result.tables = std::make_shared<burstab::TargetTables>(
        result.tree_grammar, options.tables);
  }
  if (cache) {
    Scope span(tracer, kSpanStore);
    burstab::TargetArtifactsView view;
    view.processor = &result.processor;
    view.base = result.base.get();
    view.grammar = &result.tree_grammar;
    view.tables = result.tables.get();
    view.extract_stats = &result.extract_stats;
    view.extend_stats = &result.extend_stats;
    view.grammar_stats = &result.grammar_stats;
    cache->store(key, view);
  }
  return result;
}

}  // namespace perfbench
