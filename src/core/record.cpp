#include "core/record.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "burstab/cache.h"
#include "grammar/bnf.h"
#include "hdl/parser.h"
#include "hdl/sema.h"
#include "models/models.h"
#include "netlist/netlist.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "treeparse/emitc.h"
#include "util/strings.h"

namespace record::core {

std::string default_work_dir() {
  // A pid-unique subdirectory keeps concurrent processes' generated parser
  // files apart. Only the path is computed here; emit_parser creates the
  // directory when something is actually written, so merely constructing
  // RetargetOptions leaves no droppings in the system temp dir.
  static const std::string dir = [] {
    std::error_code ec;
    std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
    if (ec) return std::string(".");
    return (tmp / util::fmt("record-work-{}",
                            static_cast<unsigned>(::getpid()))).string();
  }();
  return dir;
}

namespace {

/// Bump whenever any retargeting phase changes behaviour (extraction,
/// extension, grammar construction, table compilation): cache entries are
/// keyed on this, so stale-algorithm blobs from older binaries never serve.
constexpr int kPipelineVersion = 2;  // v2: Imm slice clamped to field width

}  // namespace

std::string options_digest(const RetargetOptions& o) {
  return util::fmt(
      "pipeline:v{};extract:depth={},routes={},prune={},procout={};"
      "grammar:elide_ext={},elide_low={},self_moves={};"
      "extend:commut={},std_rewrites={};"
      "tables:{}",
      kPipelineVersion, o.extract.limits.max_depth,
      o.extract.limits.max_routes_per_point, o.extract.prune_unsat,
      o.extract.include_proc_out, o.grammar.elide_extension_ops,
      o.grammar.elide_low_slices, o.grammar.skip_self_moves, o.commutativity,
      o.standard_rewrites, o.build_tables);
}

namespace {

/// The Table 3 "parser generation"/"parser compilation" phases; shared by
/// the cold pipeline and cache hits (the artifact is derived, not cached).
void emit_parser(RetargetResult& result, const RetargetOptions& options,
                 util::DiagnosticSink& diags) {
  util::Timer timer;
  if (options.emit_c_parser || options.compile_c_parser) {
    treeparse::EmitCOptions emit_options;
    emit_options.grammar_name = result.processor;
    result.c_parser_source =
        treeparse::emit_c_parser(result.tree_grammar, emit_options);
    result.times.record("parsergen", timer.seconds());
  }
  if (options.compile_c_parser) {
    timer.reset();
    // The artifact paths are keyed by processor name only, and the registry
    // single-flights per content hash — two concurrent retargets of
    // *different* sources naming the same processor would collide on these
    // paths, so write + compile runs under a process-wide lock.
    static std::mutex parser_mu;
    std::lock_guard<std::mutex> lock(parser_mu);
    std::error_code ec;
    std::filesystem::create_directories(options.work_dir, ec);
    std::string src_path = util::fmt("{}/record_parser_{}.c",
                                     options.work_dir, result.processor);
    std::string bin_path = util::fmt("{}/record_parser_{}",
                                     options.work_dir, result.processor);
    std::ofstream out(src_path);
    out << result.c_parser_source;
    out.close();
    const char* cc = std::getenv("CC");
    std::string cmd = util::fmt("{} -O1 -o {} {} 2>/dev/null",
                                cc ? cc : "cc", bin_path, src_path);
    result.c_compile_ok = std::system(cmd.c_str()) == 0;
    if (!result.c_compile_ok)
      diags.warning({}, "host C compiler failed on the generated parser");
    result.c_compile_seconds = timer.seconds();
    result.times.record("parsercc", result.c_compile_seconds);
  }
}

}  // namespace

std::optional<RetargetResult> Record::retarget(
    std::string_view hdl_source, const RetargetOptions& options,
    util::DiagnosticSink& diags) {
  RetargetResult result;
  util::Timer timer;
  obs::Span span("retarget");

  // --- persistent target cache (warm path) --------------------------------
  std::optional<burstab::TargetCache> cache;
  std::uint64_t cache_key = 0;
  if (options.use_target_cache && !options.extra_rewrites) {
    cache.emplace(options.cache_dir);
    cache_key =
        burstab::TargetCache::key_of(hdl_source, options_digest(options));
    if (std::optional<burstab::TargetArtifacts> art =
            cache->load(cache_key)) {
      result.processor = std::move(art->processor);
      result.tree_grammar = std::move(art->grammar);
      result.tables = std::move(art->tables);
      result.base = std::make_shared<const rtl::TemplateBase>(
          std::move(art->base));
      result.extract_stats = art->extract_stats;
      result.extend_stats = art->extend_stats;
      result.grammar_stats = art->grammar_stats;
      result.cache_hit = true;
      result.times.record("cacheload", timer.seconds());
      span.note("processor", result.processor);
      span.note("cache", "hit");
      obs::metrics().counter("retarget.cache_hit").add(1);
      emit_parser(result, options, diags);
      return result;
    }
  }

  // Per-phase spans mirror the PhaseTimes entries (Table 3 breakdown), so a
  // Perfetto view of a cold retarget shows the same hdl/ise/extend/grammar/
  // tables decomposition the benchmarks report.
  std::optional<obs::Span> phase;

  // --- HDL frontend -------------------------------------------------------
  phase.emplace("retarget.hdl");
  std::optional<hdl::ProcessorModel> model = hdl::parse(hdl_source, diags);
  if (!model) return std::nullopt;
  if (!hdl::check_model(*model, diags)) return std::nullopt;
  result.processor = model->name;
  std::optional<netlist::Netlist> nl =
      netlist::elaborate(std::move(*model), diags);
  if (!nl) return std::nullopt;
  result.times.record("hdl", timer.seconds());

  // --- instruction-set extraction -----------------------------------------
  timer.reset();
  phase.emplace("retarget.ise");
  ise::ExtractResult extraction =
      ise::extract(*nl, options.extract, diags);
  result.extract_stats = extraction.stats;
  result.times.record("ise", timer.seconds());

  // --- template-base extension ---------------------------------------------
  timer.reset();
  phase.emplace("retarget.extend");
  rtl::ExtendOptions ext;
  ext.commutativity = options.commutativity;
  rtl::RewriteLibrary standard = rtl::RewriteLibrary::standard();
  if (options.standard_rewrites) ext.rewrites = &standard;
  result.extend_stats = rtl::extend_template_base(extraction.base, ext);
  if (options.extra_rewrites) {
    rtl::ExtendOptions extra;
    extra.commutativity = false;
    extra.rewrites = options.extra_rewrites;
    rtl::ExtendStats extra_stats =
        rtl::extend_template_base(extraction.base, extra);
    result.extend_stats.rewrite_added += extra_stats.rewrite_added;
  }
  result.times.record("extend", timer.seconds());

  // --- tree-grammar construction --------------------------------------------
  timer.reset();
  phase.emplace("retarget.grammar");
  grammar::BuiltGrammar built =
      grammar::build_grammar(extraction.base, options.grammar, diags);
  result.grammar_stats = built.stats;
  result.tree_grammar = std::move(built.grammar);
  result.times.record("grammar", timer.seconds());

  result.base = std::make_shared<const rtl::TemplateBase>(
      std::move(extraction.base));

  // --- BURS state-table compilation ----------------------------------------
  if (options.build_tables) {
    timer.reset();
    phase.emplace("retarget.tables");
    result.tables = std::make_shared<burstab::TargetTables>(
        result.tree_grammar, options.tables);
    result.times.record("tables", timer.seconds());
  }
  phase.reset();
  span.note("processor", result.processor);
  span.note("templates", static_cast<std::int64_t>(result.template_count()));
  obs::metrics().counter("retarget.cold").add(1);

  if (cache) {
    timer.reset();
    burstab::TargetArtifactsView view;
    view.processor = &result.processor;
    view.base = result.base.get();
    view.grammar = &result.tree_grammar;
    view.tables = result.tables.get();
    view.extract_stats = &result.extract_stats;
    view.extend_stats = &result.extend_stats;
    view.grammar_stats = &result.grammar_stats;
    if (cache->store(cache_key, view))
      result.times.record("cachestore", timer.seconds());
  }

  emit_parser(result, options, diags);
  return result;
}

std::optional<RetargetResult> Record::retarget_model(
    std::string_view model_name, const RetargetOptions& options,
    util::DiagnosticSink& diags) {
  std::string_view source = models::model_source(model_name);
  if (source.empty()) {
    diags.error({}, util::fmt("unknown built-in model '{}'", model_name));
    return std::nullopt;
  }
  return retarget(source, options, diags);
}

}  // namespace record::core
