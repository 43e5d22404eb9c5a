// The traced paths: the compile and retarget pipelines decomposed into
// their layers' public functions, called in the same order and with the
// same arguments as core::Compiler::compile and core::Record::retarget,
// with one span per layer call. Each path must produce exactly what its
// one-call counterpart produces; the workloads check that byte for byte.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>

#include "common.h"
#include "core/compiler.h"
#include "core/record.h"

namespace perfbench {

/// Span names of the compile path.
inline constexpr std::string_view kSpanSelect = "select.select";
inline constexpr std::string_view kSpanSpill = "sched.insert_spills";
inline constexpr std::string_view kSpanCompact = "compact.compact";
inline constexpr std::string_view kSpanEncode = "emit.encode";

/// Span names of the retarget path.
inline constexpr std::string_view kSpanParse = "hdl.parse";
inline constexpr std::string_view kSpanElaborate = "netlist.elaborate";
inline constexpr std::string_view kSpanExtract = "ise.extract";
inline constexpr std::string_view kSpanExtend = "rtl.extend";
inline constexpr std::string_view kSpanGrammar = "grammar.build";
inline constexpr std::string_view kSpanTables = "burstab.tables";
inline constexpr std::string_view kSpanStore = "burstab.cache_store";
inline constexpr std::string_view kSpanLoad = "burstab.cache_load";

/// Work counts of one decomposed compile.
struct CompileCounts {
  std::size_t nodes_labelled = 0;
  std::size_t spills = 0;  // store+reload pairs plus caller-save wraps
  std::size_t words = 0;
  std::size_t multi_rt_words = 0;
  std::size_t pairs_rejected = 0;
  std::size_t suppressed = 0;
};

/// select::CodeSelector::select -> sched::insert_spills -> compact::compact
/// -> emit::encode, one span each (spans nest under the tracer's open span).
[[nodiscard]] std::optional<record::core::CompileResult> traced_compile(
    const record::core::RetargetResult& target,
    const record::ir::Program& prog,
    const record::core::CompileOptions& options,
    record::util::DiagnosticSink& diags,
    record::select::SelectScratch* scratch, Tracer* tracer,
    CompileCounts* counts = nullptr);

/// hdl::parse + hdl::check_model -> netlist::elaborate -> ise::extract ->
/// rtl::extend_template_base -> grammar::build_grammar ->
/// burstab::TargetTables -> burstab::TargetCache::store; with a cache hit,
/// burstab::TargetCache::load alone. Honours the same RetargetOptions
/// subset Record::retarget does, except the C-parser emission.
[[nodiscard]] std::optional<record::core::RetargetResult> traced_retarget(
    std::string_view hdl_source, const record::core::RetargetOptions& options,
    record::util::DiagnosticSink& diags, Tracer* tracer);

}  // namespace perfbench
