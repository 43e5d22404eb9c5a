#include "service/introspect.h"

#include "core/compiler.h"
#include "ir/kernel_lang.h"
#include "obs/coverage.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/diagnostics.h"
#include "util/failpoint.h"

namespace record::service {

namespace {

Json histogram_json(const obs::HistogramStats& h) {
  Json out = Json::object();
  out.set("count", Json(static_cast<double>(h.count)));
  out.set("sum", Json(static_cast<double>(h.sum)));
  out.set("min", Json(static_cast<double>(h.min)));
  out.set("max", Json(static_cast<double>(h.max)));
  out.set("mean", Json(h.mean));
  out.set("p50", Json(static_cast<double>(h.p50)));
  out.set("p90", Json(static_cast<double>(h.p90)));
  out.set("p99", Json(static_cast<double>(h.p99)));
  // Raw distribution: occupied buckets with their value ranges, so
  // consumers can rebuild the full histogram (and recompute any quantile)
  // instead of trusting the three shipped percentiles.
  Json buckets = Json::array();
  for (const obs::HistogramBucket& b : h.buckets) {
    Json jb = Json::object();
    jb.set("lo", Json(static_cast<double>(b.lo)));
    jb.set("hi", Json(static_cast<double>(b.hi)));
    jb.set("count", Json(static_cast<double>(b.count)));
    buckets.push(std::move(jb));
  }
  out.set("buckets", std::move(buckets));
  return out;
}

/// Ratio pair {"covered": N, "total": M} (total 0 = denominator unknown).
Json ratio_json(std::size_t covered, std::uint64_t total) {
  Json out = Json::object();
  out.set("covered", Json(static_cast<double>(covered)));
  out.set("total", Json(static_cast<double>(total)));
  return out;
}

Json coverage_json(const obs::CoverageSnapshot& s) {
  Json out = Json::object();
  out.set("target", Json(s.target));
  out.set("rules_matched",
          ratio_json(s.rules_matched_covered(), s.rules_total));
  out.set("rules_chosen", ratio_json(s.rules_chosen_covered(), s.rules_total));
  // State and transition ids are first-use ordered: no denominator.
  out.set("states", ratio_json(s.states_covered(), 0));
  out.set("transitions", ratio_json(s.transitions_covered(), 0));
  out.set("cold_transitions",
          Json(static_cast<double>(s.counts.cold_transitions)));
  Json variants = Json::object();
  for (std::size_t v = 0; v < obs::kCoverageVariantCount; ++v)
    variants.set(
        std::string(to_string(static_cast<obs::CoverageVariant>(v))),
        Json(static_cast<double>(s.counts.variants[v])));
  out.set("variants", std::move(variants));
  Json uncovered = Json::array();
  for (int rid : s.uncovered_rules()) {
    Json r = Json::object();
    r.set("rule", Json(static_cast<double>(rid)));
    if (static_cast<std::size_t>(rid) < s.rule_names.size())
      r.set("name", Json(s.rule_names[static_cast<std::size_t>(rid)]));
    uncovered.push(std::move(r));
  }
  out.set("uncovered_rules", std::move(uncovered));
  return out;
}

Json explain_response(const Json& request, CompileService& service) {
  Json out = Json::object();
  out.set("cmd", Json("explain"));
  const std::string& model = request["model"].as_string();
  const std::string& hdl = request["hdl"].as_string();
  const std::string& kernel = request["kernel"].as_string();
  if ((model.empty() && hdl.empty()) || kernel.empty()) {
    out.set("ok", Json(false));
    out.set("error",
            Json("explain needs \"kernel\" plus \"model\" or \"hdl\""));
    return out;
  }
  util::DiagnosticSink diags;
  std::shared_ptr<const core::RetargetResult> target =
      model.empty() ? service.registry().get(hdl, diags)
                    : service.registry().get_model(model, diags);
  if (!target) {
    out.set("ok", Json(false));
    std::string err = diags.first_error();
    out.set("error", Json(err.empty() ? "retargeting failed" : err));
    return out;
  }
  std::optional<ir::Program> program = ir::parse_kernel(kernel, diags);
  if (!program) {
    out.set("ok", Json(false));
    std::string err = diags.first_error();
    out.set("error", Json(err.empty() ? "kernel parse failed" : err));
    return out;
  }
  select::ExplainSink sink;
  core::CompileOptions options;
  options.explain = &sink;
  core::Compiler compiler(target);
  std::optional<core::CompileResult> compiled =
      compiler.compile(*program, options, diags);
  if (!compiled) {
    out.set("ok", Json(false));
    std::string err = diags.first_error();
    out.set("error", Json(err.empty() ? "compilation failed" : err));
    return out;
  }
  out.set("ok", Json(true));
  out.set("processor", Json(target->processor));
  Json stmts = Json::array();
  for (const select::StmtExplain& ex : sink.stmts) {
    Json js = Json::object();
    js.set("source", Json(ex.source));
    if (!ex.subject.empty()) js.set("subject", Json(ex.subject));
    js.set("cost", Json(static_cast<double>(ex.cost)));
    if (ex.promoted) js.set("promoted", Json(true));
    Json steps = Json::array();
    for (const select::ExplainStep& st : ex.steps) {
      Json jstep = Json::object();
      jstep.set("rule", Json(static_cast<double>(st.rule)));
      jstep.set("rule_text", Json(st.rule_text));
      jstep.set("nonterminal", Json(st.nonterminal));
      jstep.set("node", Json(st.node));
      jstep.set("cost", Json(static_cast<double>(st.cost)));
      if (st.is_chain) jstep.set("chain", Json(true));
      if (!st.imms.empty()) {
        Json imms = Json::array();
        for (const select::ExplainImm& imm : st.imms) {
          Json ji = Json::object();
          ji.set("width", Json(static_cast<double>(imm.width)));
          ji.set("value", Json(static_cast<double>(imm.value)));
          ji.set("fits", Json(imm.fits));
          imms.push(std::move(ji));
        }
        jstep.set("imms", std::move(imms));
      }
      if (!st.alternatives.empty()) {
        Json alts = Json::array();
        for (const select::ExplainAlternative& alt : st.alternatives) {
          Json ja = Json::object();
          ja.set("rule", Json(static_cast<double>(alt.rule)));
          ja.set("rule_text", Json(alt.rule_text));
          ja.set("nonterminal", Json(alt.nonterminal));
          ja.set("cost", Json(static_cast<double>(alt.cost)));
          alts.push(std::move(ja));
        }
        jstep.set("alternatives", std::move(alts));
      }
      steps.push(std::move(jstep));
    }
    js.set("steps", std::move(steps));
    stmts.push(std::move(js));
  }
  out.set("statements", std::move(stmts));
  return out;
}

Json trace_response(const Json& request) {
  Json out = Json::object();
  out.set("ok", Json(true));
  out.set("cmd", Json("trace"));
  obs::Tracer& tracer = obs::Tracer::instance();
  out.set("enabled", Json(tracer.enabled()));
  std::int64_t last = request["last"].as_int(64);
  if (last < 0) last = 0;
  Json events = Json::array();
  for (const obs::TraceEvent& e :
       tracer.recent(static_cast<std::size_t>(last))) {
    Json ev = Json::object();
    ev.set("name", Json(e.name));
    ev.set("ts_us", Json(static_cast<double>(e.start_ns) / 1e3));
    ev.set("dur_us", Json(static_cast<double>(e.dur_ns) / 1e3));
    ev.set("tid", Json(static_cast<double>(e.tid)));
    ev.set("depth", Json(static_cast<double>(e.depth)));
    if (!e.args.empty()) {
      Json args = Json::object();
      for (const auto& [k, v] : e.args) args.set(k, Json(v));
      ev.set("args", std::move(args));
    }
    events.push(std::move(ev));
  }
  out.set("events", std::move(events));
  return out;
}

// {"cmd":"failpoint"} lists the armed sites; adding "name" and "spec" arms
// (or, with spec "off"/empty, disarms) that site first. The response always
// carries the post-change listing so an operator sees the effect in-line.
Json failpoint_response(const Json& request) {
  Json out = Json::object();
  out.set("cmd", Json("failpoint"));
  const std::string& name = request["name"].as_string();
  if (!name.empty()) {
    std::string spec = request["spec"].as_string();
    if (spec.empty()) spec = "off";
    std::string error;
    if (!util::failpoint_arm(name, spec, &error)) {
      out.set("ok", Json(false));
      out.set("error", Json("failpoint '" + name + "': " + error));
      return out;
    }
  }
  out.set("ok", Json(true));
  Json list = Json::array();
  for (const util::FailpointInfo& fp : util::failpoint_list()) {
    Json jf = Json::object();
    jf.set("name", Json(fp.name));
    jf.set("spec", Json(fp.spec));
    jf.set("hits", Json(static_cast<double>(fp.hits)));
    jf.set("fires", Json(static_cast<double>(fp.fires)));
    list.push(std::move(jf));
  }
  out.set("failpoints", std::move(list));
  return out;
}

}  // namespace

Json stats_response(CompileService& service) {
  Json out = Json::object();
  out.set("ok", Json(true));
  out.set("cmd", Json("stats"));

  const ServiceStats s = service.stats();
  Json svc = Json::object();
  svc.set("workers", Json(static_cast<double>(service.worker_count())));
  svc.set("submitted", Json(static_cast<double>(s.submitted)));
  svc.set("completed", Json(static_cast<double>(s.completed)));
  svc.set("failed", Json(static_cast<double>(s.failed)));
  svc.set("peak_queue", Json(static_cast<double>(s.peak_queue)));
  svc.set("semantics_checked",
          Json(static_cast<double>(s.semantics_checked)));
  svc.set("semantics_failed", Json(static_cast<double>(s.semantics_failed)));
  svc.set("deadline_exceeded",
          Json(static_cast<double>(s.deadline_exceeded)));
  Json queue = Json::object();
  queue.set("mean_ms", Json(s.mean_queue_ms));
  queue.set("p50_ms", Json(s.p50_queue_ms));
  queue.set("p90_ms", Json(s.p90_queue_ms));
  queue.set("p99_ms", Json(s.p99_queue_ms));
  queue.set("total_ms", Json(s.total_queue_ms));
  svc.set("queue_wait", std::move(queue));
  Json compile = Json::object();
  compile.set("mean_ms", Json(s.mean_compile_ms));
  compile.set("p50_ms", Json(s.p50_compile_ms));
  compile.set("p90_ms", Json(s.p90_compile_ms));
  compile.set("p99_ms", Json(s.p99_compile_ms));
  compile.set("total_ms", Json(s.total_compile_ms));
  svc.set("compile", std::move(compile));
  out.set("service", std::move(svc));

  const RegistryStats r = service.registry().stats();
  Json reg = Json::object();
  reg.set("entries", Json(static_cast<double>(r.entries)));
  reg.set("hits", Json(static_cast<double>(r.hits)));
  reg.set("coalesced", Json(static_cast<double>(r.coalesced)));
  reg.set("misses", Json(static_cast<double>(r.misses)));
  reg.set("disk_hits", Json(static_cast<double>(r.disk_hits)));
  reg.set("evictions", Json(static_cast<double>(r.evictions)));
  reg.set("failures", Json(static_cast<double>(r.failures)));
  out.set("registry", std::move(reg));

  // The process-wide registry: retarget phase counters, burstab cache
  // traffic, per-model compile counts ("service.compiled.<model>"), oracle
  // verdict tallies when a fuzz run shares the process.
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  Json metrics = Json::object();
  Json counters = Json::object();
  for (const auto& [name, v] : snap.counters)
    counters.set(name, Json(static_cast<double>(v)));
  metrics.set("counters", std::move(counters));
  if (!snap.gauges.empty()) {
    Json gauges = Json::object();
    for (const auto& [name, v] : snap.gauges)
      gauges.set(name, Json(static_cast<double>(v)));
    metrics.set("gauges", std::move(gauges));
  }
  Json histograms = Json::object();
  for (const auto& [name, h] : snap.histograms)
    histograms.set(name, histogram_json(h));
  metrics.set("histograms", std::move(histograms));
  out.set("metrics", std::move(metrics));

  // Per-model selection coverage (present whenever coverage is enabled and
  // at least one compile has attached a map).
  const std::vector<obs::CoverageSnapshot> cov =
      obs::coverage().snapshot_all();
  if (!cov.empty()) {
    Json coverage = Json::array();
    for (const obs::CoverageSnapshot& s : cov)
      coverage.push(coverage_json(s));
    out.set("coverage", std::move(coverage));
  }
  return out;
}

std::optional<Json> handle_introspection(const Json& request,
                                         CompileService& service) {
  if (!request.is_object() || !request.contains("cmd")) return std::nullopt;
  const std::string& cmd = request["cmd"].as_string();
  if (cmd == "stats") return stats_response(service);
  if (cmd == "trace") return trace_response(request);
  if (cmd == "explain") return explain_response(request, service);
  if (cmd == "failpoint") return failpoint_response(request);
  Json out = Json::object();
  out.set("ok", Json(false));
  out.set("error",
          Json("unknown cmd '" + cmd +
               "' (try stats, trace, explain, failpoint)"));
  return out;
}

}  // namespace record::service
