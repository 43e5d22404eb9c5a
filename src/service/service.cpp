#include "service/service.h"

#include <algorithm>
#include <map>
#include <new>
#include <utility>

#include "ir/kernel_lang.h"
#include "obs/trace.h"
#include "sim/check.h"
#include "util/failpoint.h"

namespace record::service {

namespace {

/// Absolute deadline for a job; epoch (default-constructed) = none. Computed
/// at submission so queue wait counts against the budget.
std::chrono::steady_clock::time_point deadline_of(const CompileJob& job) {
  if (job.deadline_ms == 0) return {};
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(job.deadline_ms);
}

bool expired(std::chrono::steady_clock::time_point deadline) {
  return deadline != std::chrono::steady_clock::time_point{} &&
         std::chrono::steady_clock::now() >= deadline;
}

}  // namespace

CompileService::CompileService(Options options)
    : options_(std::move(options)), registry_(options_.registry) {
  std::size_t n = options_.workers;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  worker_n_ = n;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

CompileService::~CompileService() { shutdown(); }

void CompileService::shutdown() {
  // The pool is claimed under the lock so concurrent shutdown calls (e.g.
  // the destructor racing an explicit shutdown) never double-join; joining
  // happens unlocked because workers take mu_ to drain the queue.
  std::vector<std::thread> claimed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    claimed.swap(workers_);
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  for (std::thread& w : claimed)
    if (w.joinable()) w.join();
}

std::future<JobResult> CompileService::submit(CompileJob job) {
  std::promise<JobResult> promise;
  std::future<JobResult> future = promise.get_future();

  std::unique_lock<std::mutex> lock(mu_);
  not_full_.wait(lock, [&] {
    return stopping_ || queue_.size() < options_.queue_capacity;
  });
  if (stopping_) {
    lock.unlock();
    JobResult rejected;
    rejected.tag = std::move(job.tag);
    rejected.error = "compile service is shut down";
    promise.set_value(std::move(rejected));
    return future;
  }
  ++stats_.submitted;
  const auto deadline = deadline_of(job);
  queue_.push_back(Pending{std::move(job), std::move(promise), {}, {}, deadline});
  stats_.peak_queue = std::max(stats_.peak_queue, queue_.size());
  lock.unlock();
  not_empty_.notify_one();
  return future;
}

void CompileService::submit_async(CompileJob job, Callback done) {
  std::unique_lock<std::mutex> lock(mu_);
  not_full_.wait(lock, [&] {
    return stopping_ || queue_.size() < options_.queue_capacity;
  });
  if (stopping_) {
    lock.unlock();
    JobResult rejected;
    rejected.tag = std::move(job.tag);
    rejected.error = "compile service is shut down";
    done(std::move(rejected));
    return;
  }
  ++stats_.submitted;
  const auto deadline = deadline_of(job);
  queue_.push_back(Pending{std::move(job), {}, std::move(done), {}, deadline});
  stats_.peak_queue = std::max(stats_.peak_queue, queue_.size());
  lock.unlock();
  not_empty_.notify_one();
}

bool CompileService::try_submit_async(CompileJob& job, Callback& done,
                                      std::uint64_t* retry_after_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    lock.unlock();
    JobResult rejected;
    rejected.tag = std::move(job.tag);
    rejected.error = "compile service is shut down";
    done(std::move(rejected));
    return true;  // consumed: the rejection IS the completion
  }
  if (queue_.size() >= options_.queue_capacity) {
    const std::size_t depth = queue_.size();
    lock.unlock();
    if (retry_after_ms) *retry_after_ms = backoff_ms(depth);
    obs::metrics().counter("service.queue_full").add(1);
    return false;
  }
  ++stats_.submitted;
  const auto deadline = deadline_of(job);
  queue_.push_back(Pending{std::move(job), {}, std::move(done), {}, deadline});
  stats_.peak_queue = std::max(stats_.peak_queue, queue_.size());
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

std::uint64_t CompileService::suggested_backoff_ms() const {
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    depth = queue_.size();
  }
  return backoff_ms(depth);
}

std::uint64_t CompileService::backoff_ms(std::size_t queue_depth) const {
  const obs::HistogramStats c = compile_ns_.stats();
  // Before any job has completed there is no latency sample; assume a few
  // milliseconds so the very first rejection still carries a usable hint.
  double mean_ms = c.count > 0 ? c.mean / 1e6 : 5.0;
  if (mean_ms < 0.1) mean_ms = 0.1;
  const std::size_t workers = worker_n_ ? worker_n_ : 1;
  double est = static_cast<double>(queue_depth + 1) * mean_ms /
               static_cast<double>(workers);
  if (est < 1.0) est = 1.0;
  if (est > 1000.0) est = 1000.0;
  return static_cast<std::uint64_t>(est);
}

std::vector<JobResult> CompileService::compile_batch(
    std::vector<CompileJob> jobs) {
  std::vector<std::future<JobResult>> futures;
  futures.reserve(jobs.size());
  for (CompileJob& job : jobs) futures.push_back(submit(std::move(job)));
  std::vector<JobResult> results;
  results.reserve(futures.size());
  for (std::future<JobResult>& f : futures) results.push_back(f.get());
  return results;
}

void CompileService::worker_loop() {
  // Per-thread selection scratch: label buffers and the derivation arena
  // reach steady-state capacity after the first few jobs and are reused for
  // every job this worker runs afterwards (no per-job reallocation).
  select::SelectScratch scratch;
  // Metric handles resolved once per worker: a registry lookup takes its
  // mutex. Per-processor counters are resolved on a processor's first job.
  obs::Histogram& global_queue_ns = obs::metrics().histogram("service.queue_ns");
  obs::Histogram& global_compile_ns =
      obs::metrics().histogram("service.compile_ns");
  obs::Counter& jobs = obs::metrics().counter("service.jobs");
  obs::Counter& failed = obs::metrics().counter("service.failed");
  obs::Counter& deadline_exceeded =
      obs::metrics().counter("service.deadline_exceeded");
  std::map<std::string, obs::Counter*, std::less<>> compiled;
  for (;;) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ and drained
    Pending pending = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    not_full_.notify_one();

    double queue_ms = pending.enqueued.milliseconds();
    JobResult result;
    // The failpoint runs before the deadline check: a sleep:MS spec injects
    // queue-side latency that can legitimately expire the job.
    const bool injected = util::failpoint("service.worker.job");
    if (injected || expired(pending.deadline)) {
      result.tag = pending.job.tag;
      if (injected) {
        result.error = "failpoint: service.worker.job";
      } else {
        result.deadline_exceeded = true;
        result.error = "deadline_exceeded: job expired before a worker ran it";
      }
      result.retry_after_ms = suggested_backoff_ms();
    } else {
      try {
        result = run_job(pending.job, registry_, &scratch, pending.deadline);
      } catch (const std::exception& e) {
        // A throwing job must not unwind out of the worker (std::terminate);
        // it fails that one job and the pool keeps serving.
        result.tag = pending.job.tag;
        result.error = std::string("job threw: ") + e.what();
      } catch (...) {
        result.tag = pending.job.tag;
        result.error = "job threw an unknown exception";
      }
      if (result.deadline_exceeded)
        result.retry_after_ms = suggested_backoff_ms();
    }
    result.times.queue_ms = queue_ms;
    if (result.deadline_exceeded) deadline_exceeded.add(1);

    // Latency accumulation is wait-free (histogram atomics), so only the
    // plain counters ride the queue mutex.
    queue_ns_.record(static_cast<std::int64_t>(queue_ms * 1e6));
    compile_ns_.record(
        static_cast<std::int64_t>(result.times.compile_ms * 1e6));
    global_queue_ns.record(static_cast<std::int64_t>(queue_ms * 1e6));
    global_compile_ns.record(
        static_cast<std::int64_t>(result.times.compile_ms * 1e6));
    jobs.add(1);
    if (!result.ok) failed.add(1);
    if (result.ok && !result.processor.empty()) {
      auto it = compiled.find(result.processor);
      if (it == compiled.end())
        it = compiled
                 .emplace(result.processor,
                          &obs::metrics().counter("service.compiled." +
                                                  result.processor))
                 .first;
      it->second->add(1);
    }

    lock.lock();
    ++stats_.completed;
    if (!result.ok) ++stats_.failed;
    if (result.deadline_exceeded) ++stats_.deadline_exceeded;
    if (result.semantics_checked) {
      ++stats_.semantics_checked;
      if (!result.ok) ++stats_.semantics_failed;
    }
    lock.unlock();

    if (pending.callback)
      pending.callback(std::move(result));
    else
      pending.promise.set_value(std::move(result));
  }
}

ServiceStats CompileService::stats() const {
  ServiceStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
  }
  const obs::HistogramStats q = queue_ns_.stats();
  const obs::HistogramStats c = compile_ns_.stats();
  constexpr double kMs = 1e6;  // histograms hold nanoseconds
  s.total_queue_ms = static_cast<double>(q.sum) / kMs;
  s.total_compile_ms = static_cast<double>(c.sum) / kMs;
  s.mean_queue_ms = q.mean / kMs;
  s.p50_queue_ms = static_cast<double>(q.p50) / kMs;
  s.p90_queue_ms = static_cast<double>(q.p90) / kMs;
  s.p99_queue_ms = static_cast<double>(q.p99) / kMs;
  s.mean_compile_ms = c.mean / kMs;
  s.p50_compile_ms = static_cast<double>(c.p50) / kMs;
  s.p90_compile_ms = static_cast<double>(c.p90) / kMs;
  s.p99_compile_ms = static_cast<double>(c.p99) / kMs;
  return s;
}

JobResult CompileService::run_job(const CompileJob& job,
                                  TargetRegistry& registry,
                                  select::SelectScratch* scratch,
                                  std::chrono::steady_clock::time_point deadline) {
  obs::Span span("service.job");
  if (!job.tag.empty()) span.note("tag", job.tag);
  if (!job.model.empty()) span.note("model", job.model);
  JobResult result;
  result.tag = job.tag;
  util::DiagnosticSink diags;
  util::Timer timer;

  // Cancellation token: checked between pipeline phases so an expired job
  // stops at the next phase boundary instead of finishing a doomed compile.
  auto past_deadline = [&](const char* phase) {
    if (!expired(deadline)) return false;
    result.ok = false;
    result.deadline_exceeded = true;
    result.error = std::string("deadline_exceeded: after ") + phase;
    result.diagnostics = diags.str();
    return true;
  };

  if (util::failpoint("service.job.alloc")) throw std::bad_alloc();

  const core::RetargetOptions& ropts =
      job.retarget ? *job.retarget : registry.options().retarget;
  std::shared_ptr<const core::RetargetResult> target =
      job.model.empty() ? registry.get(job.hdl, ropts, diags)
                        : registry.get_model(job.model, ropts, diags);
  result.times.target_ms = timer.milliseconds();
  if (!target) {
    result.error = diags.first_error();
    if (result.error.empty()) result.error = "retargeting failed";
    result.diagnostics = diags.str();
    return result;
  }
  result.processor = target->processor;
  result.target = target;
  if (past_deadline("target resolution")) return result;

  std::shared_ptr<const ir::Program> program = job.program;
  if (!program && !job.kernel.empty()) {
    timer.reset();
    std::optional<ir::Program> parsed = ir::parse_kernel(job.kernel, diags);
    result.times.frontend_ms = timer.milliseconds();
    if (!parsed) {
      result.error = diags.first_error();
      if (result.error.empty()) result.error = "kernel parse failed";
      result.diagnostics = diags.str();
      return result;
    }
    program = std::make_shared<const ir::Program>(std::move(*parsed));
    if (past_deadline("kernel parse")) return result;
  }
  if (!program) {
    // Retarget-only request: warming the registry / probing the model.
    result.ok = true;
    result.diagnostics = diags.str();
    return result;
  }

  timer.reset();
  core::Compiler compiler(target);
  std::optional<core::CompileResult> compiled =
      compiler.compile(*program, job.options, diags, scratch);
  result.times.compile_ms = timer.milliseconds();
  result.diagnostics = diags.str();
  if (!compiled) {
    result.error = diags.first_error();
    if (result.error.empty()) result.error = "compilation failed";
    return result;
  }
  result.ok = true;
  result.code_size = compiled->code_size();
  result.rts = compiled->selection.total_rts;
  if (job.want_listing) result.listing = compiled->listing();
  if (past_deadline("compile")) return result;

  if (job.check_semantics) {
    sim::CheckOptions sopts;
    sopts.scratch_memory = job.options.spill.scratch_memory;
    sopts.scratch_base = job.options.spill.scratch_base;
    sopts.scratch_slots = job.options.spill.scratch_slots;
    sim::CheckReport chk =
        sim::check_semantics(*program, *compiled, *target, sopts);
    switch (chk.status) {
      case sim::CheckStatus::kAgree:
        result.semantics_checked = true;
        break;
      case sim::CheckStatus::kSkipped:
        result.semantics_skipped = chk.detail;
        break;
      case sim::CheckStatus::kDecodeReject:
        result.semantics_checked = true;
        result.ok = false;
        result.error = "semantic decode: " + chk.detail;
        break;
      case sim::CheckStatus::kDiverged:
        result.semantics_checked = true;
        result.ok = false;
        result.error = "semantic: " + chk.detail;
        break;
    }
  }

  result.compiled = std::move(*compiled);
  return result;
}

}  // namespace record::service
