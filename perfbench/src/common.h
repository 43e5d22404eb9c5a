// Shared harness plumbing: run arguments, the metric report, sample
// statistics, process resource readings and the in-memory span recorder.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;   // per-run scratch (target caches)
  std::string trace_out;  // span dump (Chrome trace JSON); empty = none
};

/// Monotonic nanoseconds.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// User and system CPU seconds of this process so far.
struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};
[[nodiscard]] CpuTimes cpu_times();
/// CPU seconds (user + system) used since `start`, and the share of system
/// time in them.
[[nodiscard]] double cpu_since(const CpuTimes& start);
[[nodiscard]] double sys_share_since(const CpuTimes& start);
/// CPU seconds of the calling thread (to take output checks out of a
/// single-threaded loop's CPU time).
[[nodiscard]] double thread_cpu_s();
/// Peak resident set size (VmHWM) in MiB.
[[nodiscard]] double peak_rss_mb();

/// Metrics by name and unit plus the run's correctness ledger; printed as
/// the final JSON line.
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  /// Records a correctness failure (kept: the first few messages).
  void fail(std::string what);
  void attempt() { ++attempted_; }
  void count_failed() { ++failed_; }

  [[nodiscard]] bool correct() const { return problems_ == 0; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// Human-readable metric table on stdout.
  void print_table() const;
  /// The one-line JSON result.
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t problems_ = 0;
};

/// In-memory span recorder. Each span carries a name, a parent (the span
/// that was open when it started; -1 = root), start and end. Spans are
/// recorded from the harness around its calls into each layer.
class Tracer {
 public:
  struct Span {
    std::string_view name;  // string literal
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// RAII scope: opens a span, closes it on destruction.
  class Scope {
   public:
    Scope(Tracer* t, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_ = -1;
    int saved_parent_ = -1;
  };

  /// Appends an already-measured span (e.g. a server-reported interval).
  int record(std::string_view name, int parent, std::int64_t start_ns,
             std::int64_t end_ns);

  /// Durations (ms) of every span named `name`.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const;
  /// Sum of durations (ms) of every span named `name`.
  [[nodiscard]] double total_ms(std::string_view name) const;

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// A span scope; a null tracer makes it a no-op.
using Scope = Tracer::Scope;

}  // namespace perfbench
