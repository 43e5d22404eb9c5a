// fuzz_retarget — generative differential-testing driver.
//
// For every seed in the range, generates a random processor model
// (testgen::generate_model), a batch of random kernel programs sized to it
// (testgen::generate_program), and pushes each (model, program) pair through
// the six-path differential oracle (testgen::check_pair): interpreter
// selection, table-driven selection, the warm persistent-cache path, a
// multi-worker CompileService batch, a per-word encode->decode round trip,
// the semantic oracle (RT-level simulator vs. IR reference evaluator), and
// the compaction cross-check (the same selection with compaction disabled,
// simulated too, attributing divergences the packer introduced).
// On divergence the failing program is minimized — preserving the failure
// class (structural / decode / semantic / compaction), so a semantic repro
// cannot collapse into an unrelated structural one — and dumped as a
// standalone JSON repro file that --replay reproduces.
//
// Usage:
//   fuzz_retarget [--seeds A..B | --seeds N]  seed range (default 0..50)
//                 [--programs K]              programs per model (default 3)
//                 [--workers N]               service workers (default 4)
//                 [--service-every M]         run the service path on every
//                                             M-th pair only (default 1 =
//                                             all pairs; raise to trade
//                                             coverage for speed)
//                 [--fail-fast]               stop at the first failure
//                 [--repro-out PATH]          repro dump (default
//                                             fuzz_repro.json; later
//                                             failures get .2/.3/... names)
//                 [--replay PATH]             re-run a dumped repro instead
//                 [--keep-cache]              keep the oracle cache dir
//                 [--no-semantics]            skip the semantic oracle path
//                 [--no-compact]              compile with compaction off
//                                             (every RT its own word): the
//                                             ablation twin of the default
//                                             run — also disables the
//                                             compaction cross-check, which
//                                             needs a compacted reference
//                 [--trace PATH]              record spans and write a
//                                             Chrome/Perfetto trace (open in
//                                             ui.perfetto.dev) on exit
//                 [--explain]                 after each pair, print the
//                                             chosen derivation per statement
//                                             (rule text, costs of rejected
//                                             alternatives, immediate fits)
//                 [--coverage-guided]         spend the same pair budget
//                                             (seed count x programs) under
//                                             coverage feedback: every model
//                                             seed gets one program, then
//                                             models keep receiving programs
//                                             only while each pair still
//                                             yields new chosen rules /
//                                             transitions at a rate
//                                             competitive with opening a
//                                             fresh model seed; the freed
//                                             budget explores seeds past the
//                                             range
//                 [--chaos]                   chaos mode: before each pair,
//                                             deterministically (per seed and
//                                             program) arm a random subset of
//                                             failpoints (util/failpoint.h)
//                                             at a 1/16 hit rate, sometimes
//                                             with latency injection and a
//                                             per-job deadline, and assert
//                                             every injected fault yields a
//                                             correct result or a clean
//                                             structured error — never a
//                                             crash, hang, or divergence
//                 [--verbose]                 per-pair progress lines
//
// Selection-coverage recording is always on: the summary line carries a
// "coverage" section with per-model covered/total and the distinct-coverage
// totals, so a guided run is directly comparable against a sequential run of
// the same budget. Chaos runs add a "chaos" section {injected, tolerated}.
//
// Exit status: 0 = all pairs agree, 1 = divergence found, 2 = bad usage.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/record.h"
#include "ir/kernel_lang.h"
#include "obs/coverage.h"
#include "obs/trace.h"
#include "service/json.h"
#include "testgen/modelgen.h"
#include "testgen/oracle.h"
#include "testgen/programgen.h"
#include "util/diagnostics.h"
#include "util/failpoint.h"

namespace {

using namespace record;

struct Args {
  std::uint64_t seed_lo = 0;
  std::uint64_t seed_hi = 50;
  int programs = 3;
  int workers = 4;
  int service_every = 1;
  bool fail_fast = false;
  bool keep_cache = false;
  bool semantics = true;
  bool compact = true;
  bool verbose = false;
  bool explain = false;
  bool coverage_guided = false;
  bool chaos = false;
  std::string repro_out = "fuzz_repro.json";
  std::string replay;
  std::string trace;
};

/// Strict decimal parse: a typo must not silently shrink the corpus. Digits
/// only — strtoull's sign handling would wrap "-1" to UINT64_MAX (and that
/// value itself is rejected so the inclusive seed loop can terminate).
bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return errno == 0 && end && *end == '\0' &&
         out != std::numeric_limits<std::uint64_t>::max();
}

bool parse_int(const char* s, int& out) {
  std::uint64_t v = 0;
  if (!s || !parse_u64(s, v) || v > 1u << 20) return false;
  out = static_cast<int>(v);
  return true;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seeds") {
      const char* v = value();
      if (!v) return std::nullopt;
      std::string s(v);
      std::size_t dots = s.find("..");
      if (dots == std::string::npos) {
        a.seed_lo = 0;
        if (!parse_u64(s, a.seed_hi)) return std::nullopt;
      } else {
        if (!parse_u64(s.substr(0, dots), a.seed_lo) ||
            !parse_u64(s.substr(dots + 2), a.seed_hi))
          return std::nullopt;
      }
      if (a.seed_hi < a.seed_lo) return std::nullopt;
    } else if (arg == "--programs") {
      if (!parse_int(value(), a.programs)) return std::nullopt;
    } else if (arg == "--workers") {
      if (!parse_int(value(), a.workers)) return std::nullopt;
    } else if (arg == "--service-every") {
      if (!parse_int(value(), a.service_every)) return std::nullopt;
    } else if (arg == "--repro-out") {
      const char* v = value();
      if (!v) return std::nullopt;
      a.repro_out = v;
    } else if (arg == "--replay") {
      const char* v = value();
      if (!v) return std::nullopt;
      a.replay = v;
    } else if (arg == "--trace") {
      const char* v = value();
      if (!v) return std::nullopt;
      a.trace = v;
    } else if (arg == "--fail-fast") {
      a.fail_fast = true;
    } else if (arg == "--keep-cache") {
      a.keep_cache = true;
    } else if (arg == "--no-semantics") {
      a.semantics = false;
    } else if (arg == "--no-compact") {
      a.compact = false;
    } else if (arg == "--verbose") {
      a.verbose = true;
    } else if (arg == "--explain") {
      a.explain = true;
    } else if (arg == "--coverage-guided") {
      a.coverage_guided = true;
    } else if (arg == "--chaos") {
      a.chaos = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return std::nullopt;
    }
  }
  if (a.programs < 1 || a.workers < 1 || a.service_every < 1)
    return std::nullopt;
  return a;
}

int replay_repro(const Args& args, const testgen::OracleOptions& oopts) {
  std::optional<testgen::Repro> r = testgen::load_repro(args.replay);
  if (!r) {
    std::fprintf(stderr, "cannot load repro file '%s'\n",
                 args.replay.c_str());
    return 2;
  }
  std::printf("replaying %s (model %s, knobs: %s)\n", args.replay.c_str(),
              r->model.c_str(), r->knobs.c_str());
  util::DiagnosticSink diags;
  std::optional<ir::Program> prog = ir::parse_kernel(r->kernel, diags);
  if (!prog) {
    std::fprintf(stderr, "repro kernel does not parse:\n%s\n",
                 diags.str().c_str());
    return 2;
  }
  testgen::OracleOptions ropts = oopts;
  if (r->spill_slots > 0) {
    ropts.compile.spill.scratch_base = r->spill_base;
    ropts.compile.spill.scratch_slots = r->spill_slots;
  }
  testgen::OracleReport rep = testgen::check_pair(r->hdl, *prog, ropts);
  if (rep.agree) {
    std::printf("PASS: pair agrees (compiled=%s, %zu words, semantics %s)\n",
                rep.compiled ? "yes" : "no", rep.words,
                rep.semantics_checked
                    ? "checked"
                    : (rep.semantics_skipped.empty()
                           ? "off"
                           : rep.semantics_skipped.c_str()));
    return 0;
  }
  std::printf("FAIL [%s]: %s\n",
              std::string(testgen::to_string(rep.clazz)).c_str(),
              rep.failure.c_str());
  return 1;
}

struct Counters {
  std::uint64_t models = 0, pairs = 0, compiled = 0, failures = 0;
  std::uint64_t templates_total = 0;
  std::uint64_t sem_checked = 0, sem_skipped = 0;
  std::uint64_t faults_injected = 0, faults_tolerated = 0;  // chaos mode
  // Packing shape across compiled pairs (from the compacted reference):
  // pairs where some word carries >= 2 RTs, the word/RT totals behind the
  // mean-RTs-per-word figure, and pairs the compaction cross-check covered.
  std::uint64_t packed_pairs = 0, multi_rt_words = 0;
  std::uint64_t words_total = 0, slot_rts_total = 0;
  std::uint64_t compaction_checked = 0;
  bool stop = false;
};

/// A generated model plus its shared cold retarget (when retargeting fails,
/// check_pair retries per pair and reports the diagnostic).
struct ModelRun {
  std::uint64_t seed = 0;
  testgen::GeneratedModel model;
  std::shared_ptr<const core::RetargetResult> target;
};

ModelRun make_model_run(std::uint64_t seed, Counters& c) {
  ModelRun mr;
  mr.seed = seed;
  mr.model = testgen::generate_model(seed);
  ++c.models;
  util::DiagnosticSink dr;
  if (auto t =
          core::Record::retarget(mr.model.hdl, core::RetargetOptions{}, dr))
    mr.target = std::make_shared<const core::RetargetResult>(std::move(*t));
  return mr;
}

/// Compiles the pair once more with an ExplainSink attached and prints the
/// chosen derivation per statement. A separate compile so the oracle's own
/// differential paths stay explain-free.
void print_explain(const ModelRun& mr, const testgen::GeneratedProgram& gp,
                   const testgen::OracleOptions& pair_opts, int p) {
  if (!mr.target) return;
  select::ExplainSink sink;
  core::CompileOptions copts = pair_opts.compile;
  copts.explain = &sink;
  util::DiagnosticSink diags;
  core::Compiler compiler(mr.target);
  if (!compiler.compile(gp.program, copts, diags)) {
    std::printf("explain seed=%llu p%d: compile failed\n",
                static_cast<unsigned long long>(mr.seed), p);
    return;
  }
  std::printf("explain seed=%llu p%d model=%s\n",
              static_cast<unsigned long long>(mr.seed), p,
              mr.model.name.c_str());
  for (const select::StmtExplain& ex : sink.stmts) {
    std::printf("  %s  (cost %d%s)\n", ex.source.c_str(), ex.cost,
                ex.promoted ? ", promoted precision" : "");
    for (const select::ExplainStep& st : ex.steps) {
      std::printf("    [%d]%s %s  cost=%d  at %s\n", st.rule,
                  st.is_chain ? " chain" : "", st.rule_text.c_str(), st.cost,
                  st.node.c_str());
      for (const select::ExplainImm& imm : st.imms)
        std::printf("        imm%d = %lld (%s)\n", imm.width,
                    static_cast<long long>(imm.value),
                    imm.fits ? "fits" : "does not fit");
      for (const select::ExplainAlternative& alt : st.alternatives)
        std::printf("        rejected [%d] %s  cost=%d\n", alt.rule,
                    alt.rule_text.c_str(), alt.cost);
    }
  }
}

/// One (model, program-seed) pair through the oracle: generation, the
/// differential check, counters, the verbose line, and on divergence the
/// class-preserving minimization + repro dump. Shared by the sequential and
/// coverage-guided schedules.
void run_pair(const Args& args, const testgen::OracleOptions& oopts,
              const ModelRun& mr, int p, Counters& c) {
  testgen::GeneratedProgram gp =
      testgen::generate_program(mr.model, static_cast<std::uint64_t>(p));
  testgen::OracleOptions pair_opts = oopts;
  pair_opts.target = mr.target;
  if (mr.model.spill_slots > 0) {
    pair_opts.compile.spill.scratch_base = mr.model.spill_base;
    pair_opts.compile.spill.scratch_slots = mr.model.spill_slots;
  }
  pair_opts.service =
      (c.pairs % static_cast<std::uint64_t>(args.service_every)) == 0;
  ++c.pairs;

  // Chaos: deterministically (per seed and program index) arm a random
  // subset of failpoints before the oracle runs, then account for every
  // fault the run injected. Hit rates span every:1 .. every:16 — sites are
  // disarmed (hit counts reset) per pair, so a uniform 1/16 rate would
  // almost never reach its Nth hit on low-traffic sites and inject nothing.
  // The oracle tolerates only structured faults; output that compiles must
  // stay bit-identical.
  std::string chaos_plan;
  std::uint64_t fires_before = 0;
  if (args.chaos) {
    util::failpoint_disarm_all();
    std::mt19937_64 rng((mr.seed << 8) ^
                        (static_cast<std::uint64_t>(p) + 1) *
                            0x9e3779b97f4a7c15ULL);
    static const char* kSites[] = {
        "burstab.cache.read", "burstab.cache.write", "burstab.cache.open",
        "service.job.alloc",  "service.worker.job"};
    for (const char* site : kSites) {
      if ((rng() & 1) == 0) continue;
      std::string spec =
          "every:" + std::to_string(std::uint64_t(1) << (rng() % 5));
      if (std::string_view(site) == "service.worker.job" && rng() % 4 == 0)
        spec = "sleep:2";  // latency injection drives the deadline path
      util::failpoint_arm(site, spec);
      chaos_plan += std::string(" ") + site + "=" + spec;
    }
    static const std::uint64_t kDeadlines[] = {0, 0, 1, 2000};
    pair_opts.chaos = true;
    pair_opts.service_deadline_ms = kDeadlines[rng() % 4];
    if (pair_opts.service_deadline_ms)
      chaos_plan +=
          " deadline_ms=" + std::to_string(pair_opts.service_deadline_ms);
    fires_before = util::failpoint_fire_total();
  }
  testgen::OracleReport rep =
      testgen::check_pair(mr.model.hdl, gp.program, pair_opts);
  if (args.chaos) {
    c.faults_injected += util::failpoint_fire_total() - fires_before;
    c.faults_tolerated += rep.faults_tolerated;
    util::failpoint_disarm_all();
  }
  if (rep.compiled) {
    ++c.compiled;
    c.words_total += rep.words;
    c.slot_rts_total += rep.total_slot_rts;
    c.multi_rt_words += rep.multi_rt_words;
    if (rep.multi_rt_words > 0) ++c.packed_pairs;
  }
  if (rep.semantics_checked) ++c.sem_checked;
  if (rep.compaction_checked) ++c.compaction_checked;
  if (!rep.semantics_skipped.empty()) ++c.sem_skipped;
  c.templates_total += rep.templates;
  if (args.verbose)
    std::printf("seed %llu p%d [%s]: %s (%zu templates, %zu words)\n",
                static_cast<unsigned long long>(mr.seed), p,
                mr.model.knobs.str().c_str(),
                rep.agree ? (rep.compiled ? "ok" : "ok/uncovered") : "FAIL",
                rep.templates, rep.words);
  if (args.explain) print_explain(mr, gp, pair_opts, p);
  if (rep.agree) return;

  ++c.failures;
  std::printf("FAIL [%s] seed=%llu program=%d model=%s\n  knobs: %s\n"
              "  %s\n",
              std::string(testgen::to_string(rep.clazz)).c_str(),
              static_cast<unsigned long long>(mr.seed), p,
              mr.model.name.c_str(), mr.model.knobs.str().c_str(),
              rep.failure.c_str());
  if (args.chaos)
    std::printf("  chaos plan:%s\n",
                chaos_plan.empty() ? " (no failpoints armed)"
                                   : chaos_plan.c_str());

  std::string repro_kernel;
  if (args.chaos) {
    // Failpoints fire by hit count, so every shrink run re-phases the
    // injected faults and the minimizer would chase a moving target; ship
    // the unminimized program with the armed plan recorded instead.
    repro_kernel = testgen::kernel_text(gp.program);
  } else {
    // Shrink the program while the same divergence CLASS persists —
    // shrinking a semantic repro must not accept candidates that fail
    // for an unrelated structural reason, or the minimum collapses into
    // a different bug.
    ir::Program minimized = testgen::minimize_program(
        gp.program, [&](const ir::Program& candidate) {
          testgen::OracleOptions mo = pair_opts;
          mo.service = false;  // keep shrinking cheap: the divergence
          mo.cache = false;    // almost always reproduces on paths 1+2
          testgen::OracleReport cand =
              testgen::check_pair(mr.model.hdl, candidate, mo);
          return !cand.agree && cand.clazz == rep.clazz;
        });
    repro_kernel = testgen::kernel_text(minimized);
  }
  testgen::Repro repro;
  repro.model_seed = mr.seed;
  repro.program_seed = static_cast<std::uint64_t>(p);
  repro.model = mr.model.name;
  repro.knobs = mr.model.knobs.str();
  if (args.chaos) repro.knobs += " chaos:" + chaos_plan;
  repro.spill_base = mr.model.spill_base;
  repro.spill_slots = mr.model.spill_slots;
  repro.hdl = mr.model.hdl;
  repro.kernel = repro_kernel;
  repro.failure = rep.failure;
  repro.failure_class = std::string(testgen::to_string(rep.clazz));
  // One file per failure, so earlier repros survive later ones.
  std::string repro_path =
      c.failures == 1 ? args.repro_out
                      : args.repro_out + "." + std::to_string(c.failures);
  if (testgen::write_repro(repro_path, repro))
    std::printf("  repro written to %s (replay with --replay)\n",
                repro_path.c_str());
  else
    std::fprintf(stderr, "  cannot write repro to %s\n", repro_path.c_str());
  if (args.fail_fast) c.stop = true;
}

struct GuidedStats {
  std::uint64_t budget = 0;
  std::uint64_t retained = 0;     // pairs that reached new coverage
  std::uint64_t fresh_seeds = 0;  // model seeds explored past seed_hi
};

/// Coverage-guided schedule over the same pair budget as the sequential
/// loop: (seed count) x programs. Phase 1 gives every model seed one
/// program; the leftover budget rotates through the models whose pairs
/// keep EARNING their slot, then explores fresh model seeds past seed_hi.
///
/// The retention bar is an opportunity cost, not "added anything at all":
/// almost every program reaches a few new rules, so a zero-threshold would
/// keep saturated models in the rotation forever and never free budget for
/// the far stronger move — a brand-new model seed, whose selector is
/// entirely unexplored. A model therefore stays only while its last pair
/// yielded at least the running average first-program yield (what a
/// fresh seed is expected to return). Novelty counts new CHOSEN rules and
/// table transitions (matched-rule and state deltas track them but
/// saturate much slower, which would blur the signal). Every table lookup
/// reports its transition id, so a repeat program on a known model still
/// reaches new ids at a steady rate; the bar is therefore the full mean,
/// not a fraction of it, or saturated models would never leave.
GuidedStats run_guided(const Args& args, const testgen::OracleOptions& oopts,
                       Counters& c) {
  GuidedStats g;
  g.budget = (args.seed_hi - args.seed_lo + 1) *
             static_cast<std::uint64_t>(args.programs);
  auto distinct_of = [](const ModelRun& mr) -> std::uint64_t {
    const std::string& name =
        mr.target ? mr.target->processor : mr.model.name;
    const obs::CoverageMap* m = obs::coverage().find(name);
    if (!m) return 0;
    const obs::CoverageDistinct d = m->distinct();
    return d.rules_chosen + d.transitions;
  };
  std::uint64_t used = 0;
  auto run_measured = [&](const ModelRun& mr, int p) -> std::uint64_t {
    const std::uint64_t before = distinct_of(mr);
    run_pair(args, oopts, mr, p, c);
    ++used;
    const std::uint64_t delta = distinct_of(mr) - before;
    if (delta > 0) ++g.retained;
    return delta;
  };
  // Running mean of first-program yields = the expected value of opening a
  // fresh model seed, and the rotation bar.
  std::uint64_t first_yield_sum = 0, first_yield_count = 0;
  auto bar = [&]() -> std::uint64_t {
    return first_yield_count ? first_yield_sum / first_yield_count : 0;
  };
  struct Active {
    ModelRun mr;
    int next_program = 1;
  };
  std::deque<Active> rotation;
  auto open_seed = [&](std::uint64_t seed) {
    Active a{make_model_run(seed, c), 1};
    const std::uint64_t delta = run_measured(a.mr, 0);
    first_yield_sum += delta;
    ++first_yield_count;
    if (delta >= std::max<std::uint64_t>(bar(), 1))
      rotation.push_back(std::move(a));
  };
  for (std::uint64_t seed = args.seed_lo;
       seed <= args.seed_hi && used < g.budget && !c.stop; ++seed)
    open_seed(seed);
  std::uint64_t next_fresh = args.seed_hi + 1;
  while (used < g.budget && !c.stop) {
    if (!rotation.empty()) {
      Active a = std::move(rotation.front());
      rotation.pop_front();
      if (run_measured(a.mr, a.next_program++) >=
          std::max<std::uint64_t>(bar(), 1))
        rotation.push_back(std::move(a));
    } else {
      ++g.fresh_seeds;
      open_seed(next_fresh++);
    }
  }
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: fuzz_retarget [--seeds A..B|N] [--programs K] "
                 "[--workers N] [--service-every M] [--fail-fast] "
                 "[--repro-out PATH] [--replay PATH] [--keep-cache] "
                 "[--no-semantics] [--no-compact] [--trace PATH] [--explain] "
                 "[--coverage-guided] [--chaos] [--verbose]\n");
    return 2;
  }
  const Args& args = *parsed;
  if (!args.trace.empty()) obs::Tracer::instance().enable();
  // Always record selection coverage: the counters are cheap relaxed
  // increments and the summary's coverage section makes guided and
  // sequential runs of the same budget directly comparable.
  obs::coverage().enable();

  testgen::OracleOptions oopts;
  oopts.service_workers = args.workers;
  oopts.cache_dir = testgen::default_cache_dir();
  oopts.semantics = args.semantics;
  oopts.compile.compact.enabled = args.compact;

  int status;
  if (!args.replay.empty()) {
    status = replay_repro(args, oopts);
  } else {
    Counters c;
    std::optional<GuidedStats> guided;
    if (args.coverage_guided) {
      guided = run_guided(args, oopts, c);
    } else {
      for (std::uint64_t seed = args.seed_lo; seed <= args.seed_hi && !c.stop;
           ++seed) {
        obs::Span seed_span("fuzz.seed");
        seed_span.note("seed", static_cast<std::int64_t>(seed));
        ModelRun mr = make_model_run(seed, c);
        for (int p = 0; p < args.programs && !c.stop; ++p)
          run_pair(args, oopts, mr, p, c);
      }
    }

    service::Json summary = service::Json::object();
    summary.set("models", service::Json(static_cast<double>(c.models)));
    summary.set("pairs", service::Json(static_cast<double>(c.pairs)));
    summary.set("compiled", service::Json(static_cast<double>(c.compiled)));
    summary.set("failures", service::Json(static_cast<double>(c.failures)));
    summary.set("semantics_checked",
                service::Json(static_cast<double>(c.sem_checked)));
    summary.set("semantics_skipped",
                service::Json(static_cast<double>(c.sem_skipped)));
    summary.set("avg_templates",
                service::Json(c.pairs
                                  ? static_cast<double>(c.templates_total) /
                                        static_cast<double>(c.pairs)
                                  : 0.0));
    {
      // Packing shape of the run: how often compaction actually packed, and
      // the cross-check coverage. A multi-issue campaign gates on
      // packed_share (the fraction of compiled pairs where some word
      // carries >= 2 RTs).
      service::Json jp = service::Json::object();
      jp.set("enabled", service::Json(args.compact));
      jp.set("checked_pairs",
             service::Json(static_cast<double>(c.compaction_checked)));
      jp.set("packed_pairs",
             service::Json(static_cast<double>(c.packed_pairs)));
      jp.set("multi_rt_words",
             service::Json(static_cast<double>(c.multi_rt_words)));
      jp.set("mean_rts_per_word",
             service::Json(c.words_total
                               ? static_cast<double>(c.slot_rts_total) /
                                     static_cast<double>(c.words_total)
                               : 0.0));
      jp.set("packed_share",
             service::Json(c.compiled
                               ? static_cast<double>(c.packed_pairs) /
                                     static_cast<double>(c.compiled)
                               : 0.0));
      summary.set("compaction", std::move(jp));
    }
    if (args.chaos) {
      service::Json jch = service::Json::object();
      jch.set("injected",
              service::Json(static_cast<double>(c.faults_injected)));
      jch.set("tolerated",
              service::Json(static_cast<double>(c.faults_tolerated)));
      summary.set("chaos", std::move(jch));
    }
    // Distinct-coverage totals across every model's map. These are the
    // numbers a guided run is judged by against a sequential run of the
    // same budget.
    const std::vector<obs::CoverageSnapshot> cov =
        obs::coverage().snapshot_all();
    if (!cov.empty()) {
      std::uint64_t rules_matched = 0, rules_chosen = 0, states = 0,
                    transitions = 0, rules_total = 0;
      service::Json per_model = service::Json::array();
      for (const obs::CoverageSnapshot& s : cov) {
        rules_matched += s.rules_matched_covered();
        rules_chosen += s.rules_chosen_covered();
        states += s.states_covered();
        transitions += s.transitions_covered();
        rules_total += s.rules_total;
        if (guided) {
          service::Json m = service::Json::object();
          m.set("target", service::Json(s.target));
          m.set("rules_chosen", service::Json(static_cast<double>(
                                    s.rules_chosen_covered())));
          m.set("rules_total",
                service::Json(static_cast<double>(s.rules_total)));
          m.set("states",
                service::Json(static_cast<double>(s.states_covered())));
          m.set("transitions", service::Json(static_cast<double>(
                                   s.transitions_covered())));
          per_model.push(std::move(m));
        }
      }
      service::Json jc = service::Json::object();
      jc.set("targets", service::Json(static_cast<double>(cov.size())));
      jc.set("rules_matched",
             service::Json(static_cast<double>(rules_matched)));
      jc.set("rules_chosen", service::Json(static_cast<double>(rules_chosen)));
      jc.set("states", service::Json(static_cast<double>(states)));
      jc.set("transitions", service::Json(static_cast<double>(transitions)));
      jc.set("rules_total", service::Json(static_cast<double>(rules_total)));
      if (guided) {
        jc.set("budget", service::Json(static_cast<double>(guided->budget)));
        jc.set("corpus_retained",
               service::Json(static_cast<double>(guided->retained)));
        jc.set("fresh_seeds",
               service::Json(static_cast<double>(guided->fresh_seeds)));
        jc.set("models", std::move(per_model));
      }
      summary.set("coverage", std::move(jc));
    }
    std::printf("%s\n", summary.dump().c_str());
    status = c.failures == 0 ? 0 : 1;
  }

  if (!args.keep_cache) {
    std::error_code ec;
    std::filesystem::remove_all(oopts.cache_dir, ec);
  }
  if (!args.trace.empty()) {
    if (obs::Tracer::instance().write_chrome_trace(args.trace))
      std::fprintf(stderr, "trace written to %s (open in ui.perfetto.dev)\n",
                   args.trace.c_str());
    else
      std::fprintf(stderr, "cannot write trace to %s\n", args.trace.c_str());
  }
  return status;
}
