#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

CpuTimes cpu_times() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

double cpu_since(const CpuTimes& start) {
  const CpuTimes now = cpu_times();
  return now.user_s - start.user_s + now.sys_s - start.sys_s;
}

double sys_share_since(const CpuTimes& start) {
  const double cpu = cpu_since(start);
  return cpu > 0 ? (cpu_times().sys_s - start.sys_s) / cpu : 0;
}

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

// --- Report ------------------------------------------------------------------

void Report::add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::fail(std::string what) {
  if (problems_++ < 20) std::printf("FAIL: %s\n", what.c_str());
}

void Report::print_table() const {
  for (const Metric& m : metrics_)
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

// --- Tracer ------------------------------------------------------------------

Tracer::Scope::Scope(Tracer* t, std::string_view name) : tracer_(t) {
  if (!tracer_) return;
  saved_parent_ = tracer_->open_;
  id_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back({name, saved_parent_, now_ns(), 0});
  tracer_->open_ = id_;
}

Tracer::Scope::~Scope() {
  if (!tracer_) return;
  tracer_->spans_[static_cast<std::size_t>(id_)].end_ns = now_ns();
  tracer_->open_ = saved_parent_;
}

int Tracer::record(std::string_view name, int parent, std::int64_t start_ns,
                   std::int64_t end_ns) {
  spans_.push_back({name, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(ms_between(s.start_ns, s.end_ns));
  return out;
}

double Tracer::total_ms(std::string_view name) const {
  double sum = 0;
  for (const Span& s : spans_)
    if (s.name == name) sum += ms_between(s.start_ns, s.end_ns);
  return sum;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i) out << ",\n";
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
