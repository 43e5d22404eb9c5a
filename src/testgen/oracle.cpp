#include "testgen/oracle.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/record.h"
#include "ir/kernel_lang.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/json.h"
#include "service/service.h"
#include "sim/check.h"
#include "testgen/programgen.h"
#include "util/strings.h"

namespace record::testgen {

using util::fmt;

namespace {

std::string first_line(const std::string& s) {
  std::size_t nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

std::vector<std::string> hex_words(const core::CompileResult& r) {
  std::vector<std::string> out;
  out.reserve(r.encoded.assembly.words.size());
  for (const emit::EncodedWord& w : r.encoded.assembly.words)
    out.push_back(w.hex());
  return out;
}

/// A job failure the chaos oracle accepts as a *structured* fault: an
/// injected failpoint or an expired deadline surfacing as a clean,
/// attributable error (never as divergent output).
bool structured_fault(const service::JobResult& r) {
  if (r.deadline_exceeded) return true;
  const std::string& e = r.error;
  return e.rfind("failpoint:", 0) == 0 ||
         e.rfind("deadline_exceeded", 0) == 0 ||
         e.rfind("overloaded", 0) == 0 ||
         e == "compile service is shut down" ||
         e == "job threw: std::bad_alloc";  // the service.job.alloc site
}

/// Compares a candidate path's outcome against the reference; returns the
/// first difference ("" = identical).
std::string diff_results(const char* what,
                         const std::optional<core::CompileResult>& ref,
                         const std::optional<core::CompileResult>& got) {
  if (ref.has_value() != got.has_value())
    return fmt("{}: compile {} but reference {}", what,
               got ? "succeeded" : "failed", ref ? "succeeded" : "failed");
  if (!ref) return "";
  if (ref->listing() != got->listing())
    return fmt("{}: listing differs from reference", what);
  if (hex_words(*ref) != hex_words(*got))
    return fmt("{}: encoded instruction words differ from reference", what);
  return "";
}

}  // namespace

std::string default_cache_dir() {
  return (std::filesystem::temp_directory_path() /
          fmt("record-testgen-cache-{}", static_cast<unsigned>(::getpid())))
      .string();
}

std::string_view to_string(FailureClass c) {
  switch (c) {
    case FailureClass::kNone:
      return "none";
    case FailureClass::kStructural:
      return "structural";
    case FailureClass::kDecode:
      return "decode";
    case FailureClass::kSemantic:
      return "semantic";
    case FailureClass::kCompaction:
      return "compaction";
  }
  return "?";
}

FailureClass classify_failure(std::string_view failure) {
  if (failure.empty()) return FailureClass::kNone;
  // Stable prefixes written by check_pair; everything else (compile paths
  // disagreeing, retarget failures) is structural. "compaction" covers all
  // three path-6 prefixes ("compaction:", "compaction decode:",
  // "compaction semantic:").
  if (failure.rfind("compaction", 0) == 0) return FailureClass::kCompaction;
  if (failure.rfind("round trip:", 0) == 0 ||
      failure.rfind("semantic decode:", 0) == 0)
    return FailureClass::kDecode;
  if (failure.rfind("semantic:", 0) == 0) return FailureClass::kSemantic;
  return FailureClass::kStructural;
}

std::string roundtrip_issues(const core::CompileResult& result,
                             const rtl::TemplateBase& base) {
  bdd::BddManager& mgr = *base.mgr;
  const int iw = base.instruction_width;
  const emit::Assembly& assembly = result.encoded.assembly;

  for (const emit::EncodedWord& ew : assembly.words) {
    // Instruction bit k is variable k.
    bdd::Assignment asg;
    asg.reserve(static_cast<std::size_t>(iw));
    for (int k = 0; k < iw; ++k)
      asg.emplace_back(k, k < static_cast<int>(ew.bits.size()) &&
                              ew.bits[static_cast<std::size_t>(k)]);

    for (const select::SelectedRT* rt : ew.word->rts) {
      if (!rt->tmpl) continue;

      // The emitted bits must fire this RT for some mode state: project the
      // execution condition (which already conjoins selection-time immediate
      // values) onto the instruction bits, then evaluate under the word.
      bdd::Ref c = rt->cond;
      for (int v : mgr.support(c))
        if (base.vars[v].kind != rtl::Var::Kind::kInstr) c = mgr.exists(c, v);
      if (!mgr.eval(c, asg))
        return fmt("word {} ({}): bits do not satisfy the execution "
                   "condition of '{}'",
                   ew.address, ew.hex(), rt->comment);

      // Immediate fields: in-bounds bit positions holding the bound value
      // (branches: the resolved target address).
      if (rt->is_branch) {
        auto it = assembly.labels.find(rt->branch_target);
        if (it == assembly.labels.end())
          return fmt("word {}: branch target '{}' unresolved", ew.address,
                     rt->branch_target);
        if (rt->tmpl->value->kind == rtl::RTNode::Kind::Imm) {
          const std::vector<int>& bits = rt->tmpl->value->imm_bits;
          std::uint64_t addr = static_cast<std::uint64_t>(it->second);
          if (bits.size() < 64 && (addr >> bits.size()) != 0)
            return fmt("word {}: branch target {} overflows the {}-bit "
                       "address field",
                       ew.address, it->second, bits.size());
          for (std::size_t j = 0; j < bits.size(); ++j) {
            if (bits[j] < 0 || bits[j] >= iw)
              return fmt("word {}: branch field bit {} out of bounds "
                         "(instruction width {})",
                         ew.address, bits[j], iw);
            bool want = ((addr >> j) & 1u) != 0;
            if (ew.bits[static_cast<std::size_t>(bits[j])] != want)
              return fmt("word {}: branch field bit I[{}] encodes {} but "
                         "target address {} needs {}",
                         ew.address, bits[j], !want, it->second, want);
          }
        }
      } else {
        for (const treeparse::ImmBinding& b : rt->imms) {
          const std::vector<int>& field_bits = *b.field_bits;
          // The bound value must actually fit the field: all bits beyond it
          // zero (non-negative) or all ones (sign-extended negative) —
          // silent truncation is the bug class this oracle exists to catch.
          if (field_bits.size() < 64) {
            std::int64_t high = b.value >> field_bits.size();
            if (high != 0 && high != -1)
              return fmt("word {}: bound value {} overflows the {}-bit "
                         "immediate field",
                         ew.address, b.value, field_bits.size());
          }
          std::uint64_t value = static_cast<std::uint64_t>(b.value);
          for (std::size_t j = 0; j < field_bits.size(); ++j) {
            int pos = field_bits[j];
            if (pos < 0 || pos >= iw)
              return fmt("word {}: immediate field bit {} out of bounds "
                         "(instruction width {})",
                         ew.address, pos, iw);
            bool want = ((value >> j) & 1u) != 0;
            if (ew.bits[static_cast<std::size_t>(pos)] != want)
              return fmt("word {}: immediate bit I[{}] encodes {} but bound "
                         "value {} needs {}",
                         ew.address, pos, !want, b.value, want);
          }
        }
      }
    }
  }
  return "";
}

namespace {

OracleReport check_pair_inner(std::string_view hdl, const ir::Program& prog,
                              const OracleOptions& options) {
  OracleReport rep;

  // --- path 1 + 2: interpreter vs tables over one cold retarget ----------
  obs::Span path_span("oracle.engines");
  std::optional<core::RetargetResult> local;
  const core::RetargetResult* target = options.target.get();
  if (!target) {
    core::RetargetOptions ropts;  // build_tables defaults on
    util::DiagnosticSink dr;
    local = core::Record::retarget(hdl, ropts, dr);
    if (!local) {
      rep.failure = "retarget failed: " + first_line(dr.first_error());
      return rep;
    }
    target = &*local;
  }
  rep.templates = target->template_count();
  if (!target->tables) {
    rep.failure = "retarget produced no BURS tables";
    return rep;
  }

  core::Compiler compiler(*target);
  core::CompileOptions interp_opts = options.compile;
  interp_opts.engine = select::Engine::kInterpreter;
  core::CompileOptions table_opts = options.compile;
  table_opts.engine = select::Engine::kTables;

  util::DiagnosticSink di, dt;
  std::optional<core::CompileResult> ref =
      compiler.compile(prog, interp_opts, di);
  std::optional<core::CompileResult> tab =
      compiler.compile(prog, table_opts, dt);
  rep.compiled = ref.has_value();
  if (ref) {
    rep.listing = ref->listing();
    rep.words = ref->code_size();
    rep.multi_rt_words = ref->compacted.stats.multi_rt_words;
    rep.total_slot_rts = ref->compacted.stats.total_slot_rts;
  }
  if (std::string d = diff_results("table engine", ref, tab); !d.empty()) {
    rep.failure = d;
    return rep;
  }
  path_span.end();

  // --- path 3: store to the persistent cache, reload, compile -------------
  if (options.cache) {
    OBS_SPAN("oracle.cache");
    core::RetargetOptions copts;
    copts.use_target_cache = true;
    copts.cache_dir =
        options.cache_dir.empty() ? default_cache_dir() : options.cache_dir;
    util::DiagnosticSink dc1, dc2, dcc;
    std::optional<core::RetargetResult> cold =
        core::Record::retarget(hdl, copts, dc1);
    std::optional<core::RetargetResult> warm =
        core::Record::retarget(hdl, copts, dc2);
    if (!cold || !warm) {
      rep.failure = fmt("cache path: retarget failed: {}",
                        first_line((cold ? dc2 : dc1).first_error()));
      return rep;
    }
    if (!warm->cache_hit) {
      if (!options.chaos) {
        rep.failure = "cache path: second retarget missed the warm cache";
        return rep;
      }
      // An injected store/load fault turned the warm hit into a clean cold
      // rebuild; the rebuilt target must still compile identically below.
      ++rep.faults_tolerated;
    }
    core::Compiler warm_compiler(*warm);
    core::CompileOptions warm_opts = options.compile;
    warm_opts.engine = select::Engine::kAuto;
    std::optional<core::CompileResult> cached =
        warm_compiler.compile(prog, warm_opts, dcc);
    if (std::string d = diff_results("warm cache", ref, cached);
        !d.empty()) {
      rep.failure = d;
      return rep;
    }
  }

  // --- path 4: multi-worker service batch over the kernel frontend --------
  if (options.service) {
    OBS_SPAN("oracle.service");
    service::CompileService::Options sopts;
    sopts.workers = static_cast<std::size_t>(options.service_workers);
    service::CompileService svc(sopts);
    std::string kernel = kernel_text(prog);
    std::vector<service::CompileJob> jobs;
    for (int i = 0; i < options.service_jobs; ++i) {
      service::CompileJob job;
      job.tag = fmt("j{}", i);
      job.hdl = std::string(hdl);
      job.kernel = kernel;
      job.options = options.compile;
      job.options.engine = select::Engine::kAuto;
      job.deadline_ms = options.service_deadline_ms;
      jobs.push_back(std::move(job));
    }
    std::vector<service::JobResult> results =
        svc.compile_batch(std::move(jobs));
    for (const service::JobResult& r : results) {
      if (options.chaos && !r.ok && structured_fault(r)) {
        ++rep.faults_tolerated;
        continue;
      }
      if (r.ok != rep.compiled) {
        rep.failure = fmt("service job {}: compile {} but reference {} ({})",
                          r.tag, r.ok ? "succeeded" : "failed",
                          rep.compiled ? "succeeded" : "failed",
                          first_line(r.error));
        return rep;
      }
      if (!r.ok) continue;
      if (r.listing != rep.listing) {
        rep.failure = fmt("service job {}: listing differs from reference",
                          r.tag);
        return rep;
      }
      if (r.compiled && ref && hex_words(*ref) != hex_words(*r.compiled)) {
        rep.failure = fmt("service job {}: encoded words differ from "
                          "reference",
                          r.tag);
        return rep;
      }
    }
  }

  // --- encode -> decode round trip ----------------------------------------
  if (options.roundtrip && ref) {
    OBS_SPAN("oracle.roundtrip");
    if (std::string issue = roundtrip_issues(*ref, *target->base);
        !issue.empty()) {
      rep.failure = "round trip: " + issue;
      return rep;
    }
  }

  // --- path 5: semantic oracle (simulator vs. reference evaluator) --------
  // --- path 6: compaction cross-check (same selection, compaction off) ----
  if (options.semantics && ref) {
    OBS_SPAN("oracle.semantic");
    sim::CheckOptions sopts;
    sopts.max_taken_branches = options.sim_branches;
    sopts.scratch_memory = options.compile.spill.scratch_memory;
    sopts.scratch_base = options.compile.spill.scratch_base;
    sopts.scratch_slots = options.compile.spill.scratch_slots;
    sim::CheckReport chk = sim::check_semantics(prog, *ref, *target, sopts);

    // Path 6 runs its compile up front so a path-5 divergence can be
    // ATTRIBUTED: the same selection with compaction disabled (every RT its
    // own instruction word) is simulated against the reference too. If the
    // sequential schedule agrees while the compacted one diverges, the bug
    // was introduced by compaction — packing, mode-set insertion,
    // delay-slot filling or the encoder's word merging.
    std::optional<core::CompileResult> seq;
    sim::CheckReport seq_chk;
    if (options.compile.compact.enabled) {
      OBS_SPAN("oracle.compaction");
      core::CompileOptions seq_opts = options.compile;
      seq_opts.engine = select::Engine::kInterpreter;
      seq_opts.compact.enabled = false;
      util::DiagnosticSink ds;
      seq = compiler.compile(prog, seq_opts, ds);
      if (!seq) {
        rep.failure = fmt("compaction: compaction-off compile failed while "
                          "the compacted compile succeeded: {}",
                          first_line(ds.first_error()));
        return rep;
      }
      seq_chk = sim::check_semantics(prog, *seq, *target, sopts);
    }

    if (chk.status == sim::CheckStatus::kDecodeReject ||
        chk.status == sim::CheckStatus::kDiverged) {
      const bool is_decode = chk.status == sim::CheckStatus::kDecodeReject;
      if (seq && seq_chk.agree())
        rep.failure = fmt("{}{}",
                          is_decode ? "compaction decode: "
                                    : "compaction semantic: ",
                          chk.detail);
      else
        rep.failure =
            fmt("{}{}", is_decode ? "semantic decode: " : "semantic: ",
                chk.detail);
      return rep;
    }
    if (chk.status == sim::CheckStatus::kAgree)
      rep.semantics_checked = true;
    else
      rep.semantics_skipped = chk.detail;

    if (seq) {
      switch (seq_chk.status) {
        case sim::CheckStatus::kAgree:
          // Both schedules agree with the reference on every observable
          // location; they must then also agree with each other on how the
          // run ended (a compacted run that halts where the sequential one
          // loops would never show up in final-state comparison alone).
          if (rep.semantics_checked &&
              (chk.sim.stop != seq_chk.sim.stop ||
               chk.sim.taken_branches != seq_chk.sim.taken_branches)) {
            rep.failure = fmt(
                "compaction: compacted and sequential runs end differently "
                "(stop {} after {} taken branches vs stop {} after {})",
                sim::to_string(chk.sim.stop), chk.sim.taken_branches,
                sim::to_string(seq_chk.sim.stop), seq_chk.sim.taken_branches);
            return rep;
          }
          rep.compaction_checked = true;
          break;
        case sim::CheckStatus::kSkipped:
          // Comparability is a property of the machine, shared by both
          // schedules; nothing to attribute.
          break;
        case sim::CheckStatus::kDecodeReject:
        case sim::CheckStatus::kDiverged:
          // The compacted schedule is clean but its own ablation is not —
          // still a compaction-layer defect (the sequential fallback path
          // emits broken words).
          rep.failure =
              fmt("compaction: compaction-off schedule {}: {}",
                  seq_chk.status == sim::CheckStatus::kDecodeReject
                      ? "rejected by the decoder"
                      : "diverges from the reference",
                  seq_chk.detail);
          return rep;
      }
    }
  }

  rep.agree = true;
  return rep;
}

}  // namespace

OracleReport check_pair(std::string_view hdl, const ir::Program& prog,
                        const OracleOptions& options) {
  obs::Span span("oracle.pair");
  OracleReport rep = check_pair_inner(hdl, prog, options);
  rep.clazz = classify_failure(rep.failure);

  // Per-path verdict tallies: a fuzz campaign's triage view. The counters
  // split agreement by whether the pair compiled, failures by class, and
  // semantic-oracle skips by which executor bailed (the detail prefix).
  obs::MetricsRegistry& m = obs::metrics();
  m.counter("oracle.pairs").add(1);
  if (rep.compiled) m.counter("oracle.compiled").add(1);
  switch (rep.clazz) {
    case FailureClass::kNone:
      m.counter(rep.compiled ? "oracle.agree" : "oracle.agree_uncovered")
          .add(1);
      break;
    case FailureClass::kStructural:
      m.counter("oracle.fail.structural").add(1);
      break;
    case FailureClass::kDecode:
      m.counter("oracle.fail.decode").add(1);
      break;
    case FailureClass::kSemantic:
      m.counter("oracle.fail.semantic").add(1);
      break;
    case FailureClass::kCompaction:
      m.counter("oracle.fail.compaction").add(1);
      break;
  }
  if (rep.semantics_checked) m.counter("oracle.semantics_checked").add(1);
  if (rep.compaction_checked) m.counter("oracle.compaction_checked").add(1);
  if (rep.faults_tolerated)
    m.counter("oracle.faults_tolerated").add(rep.faults_tolerated);
  if (!rep.semantics_skipped.empty()) {
    // Bucket by the stable "<executor>:" prefix of the skip detail; free
    // text after the colon would explode the name space.
    std::string_view reason = rep.semantics_skipped;
    reason = reason.substr(0, reason.find(':'));
    std::string name = "oracle.semantics_skipped.";
    for (char c : reason) name.push_back(c == ' ' ? '_' : c);
    m.counter(name).add(1);
  }
  span.note("verdict", std::string(to_string(rep.clazz)));
  return rep;
}

// --- minimisation -----------------------------------------------------------

namespace {

/// Clones `prog`, replacing the operator node at `path` inside statement
/// `stmt` (a child-index walk from the rhs root) by its `child`-th operand.
ir::ExprPtr clone_shrunk(const ir::Expr& e, const std::vector<int>& path,
                         std::size_t pi, int child) {
  if (pi == path.size()) return e.args[static_cast<std::size_t>(child)]->clone();
  ir::ExprPtr out = e.clone();
  // Re-descend into the clone along the remaining path.
  ir::Expr* node = out.get();
  // The clone above copied everything; rebuild just the target branch.
  int next = path[pi];
  node->args[static_cast<std::size_t>(next)] =
      clone_shrunk(*e.args[static_cast<std::size_t>(next)], path, pi + 1,
                   child);
  return out;
}

/// Paths (child-index sequences) of every OpNode in the tree.
void collect_op_paths(const ir::Expr& e, std::vector<int>& prefix,
                      std::vector<std::vector<int>>& out) {
  if (e.kind == ir::Expr::Kind::OpNode && !e.args.empty()) out.push_back(prefix);
  for (std::size_t i = 0; i < e.args.size(); ++i) {
    prefix.push_back(static_cast<int>(i));
    collect_op_paths(*e.args[i], prefix, out);
    prefix.pop_back();
  }
}

const ir::Expr* node_at(const ir::Expr& e, const std::vector<int>& path) {
  const ir::Expr* n = &e;
  for (int i : path) n = n->args[static_cast<std::size_t>(i)].get();
  return n;
}

}  // namespace

ir::Program minimize_program(
    const ir::Program& prog,
    const std::function<bool(const ir::Program&)>& still_fails,
    int budget) {
  ir::Program current = clone_program(prog);
  bool improved = true;
  while (improved && budget > 0) {
    improved = false;

    // Pass 1: drop whole statements (back to front, so indices stay stable).
    for (int i = static_cast<int>(current.stmts().size()) - 1;
         i >= 0 && budget > 0; --i) {
      if (current.stmts().size() <= 1) break;
      ir::Program candidate = clone_program(current, i);
      util::DiagnosticSink d;
      if (!candidate.validate(d)) continue;  // e.g. dangling branch target
      --budget;
      if (still_fails(candidate)) {
        current = std::move(candidate);
        improved = true;
      }
    }

    // Pass 2: replace operator nodes by one of their operands.
    int stmt_count = static_cast<int>(current.stmts().size());
    for (int s = 0; s < stmt_count && budget > 0; ++s) {
      const ir::Stmt& stmt = current.stmts()[static_cast<std::size_t>(s)];
      if (!stmt.rhs) continue;
      std::vector<std::vector<int>> paths;
      std::vector<int> prefix;
      collect_op_paths(*stmt.rhs, prefix, paths);
      for (const std::vector<int>& path : paths) {
        bool shrunk = false;
        int arity = static_cast<int>(node_at(*stmt.rhs, path)->args.size());
        for (int child = 0; child < arity && budget > 0 && !shrunk; ++child) {
          ir::ExprPtr rhs = clone_shrunk(*stmt.rhs, path, 0, child);
          ir::Program candidate =
              clone_program_with_rhs(current, s, std::move(rhs));
          --budget;
          if (still_fails(candidate)) {
            current = std::move(candidate);
            improved = true;
            shrunk = true;
          }
        }
        if (shrunk) break;  // paths into the old rhs are stale now
      }
    }
  }
  return current;
}

// --- repro files ------------------------------------------------------------

bool write_repro(const std::string& path, const Repro& r) {
  service::Json doc = service::Json::object();
  // Seeds go through strings: Json numbers are doubles, which cannot carry
  // a full 64-bit seed exactly.
  doc.set("model_seed", service::Json(std::to_string(r.model_seed)));
  doc.set("program_seed", service::Json(std::to_string(r.program_seed)));
  doc.set("model", service::Json(r.model));
  doc.set("knobs", service::Json(r.knobs));
  doc.set("failure", service::Json(r.failure));
  doc.set("failure_class", service::Json(r.failure_class));
  doc.set("spill_base", service::Json(static_cast<double>(r.spill_base)));
  doc.set("spill_slots", service::Json(r.spill_slots));
  doc.set("kernel", service::Json(r.kernel));
  doc.set("hdl", service::Json(r.hdl));
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << doc.dump() << "\n";
  return static_cast<bool>(out);
}

std::optional<Repro> load_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  std::optional<service::Json> doc = service::Json::parse(buf.str());
  if (!doc || !doc->is_object()) return std::nullopt;
  Repro r;
  r.model_seed =
      std::strtoull((*doc)["model_seed"].as_string().c_str(), nullptr, 10);
  r.program_seed =
      std::strtoull((*doc)["program_seed"].as_string().c_str(), nullptr, 10);
  r.model = (*doc)["model"].as_string();
  r.knobs = (*doc)["knobs"].as_string();
  r.failure = (*doc)["failure"].as_string();
  r.failure_class = (*doc)["failure_class"].as_string();
  if (r.failure_class.empty())  // pre-class repro files
    r.failure_class = std::string(to_string(classify_failure(r.failure)));
  r.spill_base = (*doc)["spill_base"].as_int();
  r.spill_slots = static_cast<int>((*doc)["spill_slots"].as_int());
  r.kernel = (*doc)["kernel"].as_string();
  r.hdl = (*doc)["hdl"].as_string();
  if (r.hdl.empty() || r.kernel.empty()) return std::nullopt;
  return r;
}

}  // namespace record::testgen
