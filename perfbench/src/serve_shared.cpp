// serve_shared: the recordd serving path. One client thread on one loopback
// TCP connection keeps a window of kWindow kernel-source requests in flight
// against a net::LineServer over a service::CompileService with kWorkers
// workers. About half the jobs target ref; the rest use the other five
// built-in models.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>

#include "builtin.h"
#include "ir/kernel_lang.h"
#include "metrics.h"
#include "net/server.h"
#include "service/json.h"
#include "service/service.h"
#include "testgen/modelgen.h"
#include "util/strings.h"
#include "workloads.h"

namespace perfbench {

using namespace record;
using service::Json;

namespace {

constexpr std::size_t kWindow = 4;
constexpr std::size_t kWorkers = 2;
constexpr int kListingEvery = 8;  // 1 in 8 requests asks for the listing

/// Blocking JSON-lines client on one TCP connection.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{30, 0};  // a stalled server fails the run instead of hanging
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  [[nodiscard]] bool ok() const { return fd_ >= 0; }

  bool send_line(const std::string& line) {
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::optional<std::string> read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n', scan_);
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        scan_ = 0;
        return line;
      }
      scan_ = buf_.size();
      char chunk[65536];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t scan_ = 0;  // bytes of buf_ already searched for '\n'
};

/// The server under test plus one connected client. Members are declared
/// in construction order; the destructor closes the client first.
struct Served {
  std::unique_ptr<service::CompileService> service;
  std::unique_ptr<net::LineServer> server;
  std::unique_ptr<LineClient> client;

  ~Served() {
    client.reset();
    if (server) server->stop();
    if (service) service->shutdown();
  }
};

std::unique_ptr<Served> start_server(std::size_t workers, Report& report) {
  auto s = std::make_unique<Served>();
  service::CompileService::Options options;
  options.workers = workers;
  s->service = std::make_unique<service::CompileService>(options);
  s->server = std::make_unique<net::LineServer>(*s->service,
                                                net::LineServer::Options{});
  std::string error;
  if (!s->server->start(&error)) {
    report.fail("LineServer start: " + error);
    return nullptr;
  }
  s->client = std::make_unique<LineClient>(s->server->port());
  if (!s->client->ok()) {
    report.fail("cannot connect to the LineServer");
    return nullptr;
  }
  return s;
}

/// Closed loop with a fixed window: keeps kWindow requests in flight while
/// `more(next)` holds, then drains. make(i) renders request i (one line,
/// newline-terminated); on_reply(i, issued_ns, received_ns, response) sees
/// each response in request order (LineServer answers in order).
template <class Make, class More, class OnReply>
bool pump(LineClient& client, Make make, More more, OnReply on_reply,
          Report& report) {
  std::deque<std::pair<std::size_t, std::int64_t>> inflight;
  std::size_t next = 0;
  auto issue = [&] {
    inflight.emplace_back(next, now_ns());
    return client.send_line(make(next++));
  };
  while (inflight.size() < kWindow && more(next))
    if (!issue()) break;
  while (!inflight.empty()) {
    std::optional<std::string> line = client.read_line();
    if (!line) {
      report.fail("connection to the LineServer lost");
      return false;
    }
    const std::int64_t received = now_ns();
    const auto [index, issued] = inflight.front();
    inflight.pop_front();
    std::optional<Json> response = Json::parse(*line);
    on_reply(index, issued, received, response ? *response : Json());
    if (more(next) && !issue()) {
      report.fail("send to the LineServer failed");
      return false;
    }
  }
  return true;
}

/// One distinct program's request lines (with and without the listing) and
/// its expected reply.
struct Wire {
  std::string plain;
  std::string with_listing;
  std::size_t words = 0;
  std::vector<std::string> listing;  // non-empty listing lines
};

std::string request_line(const ProgramSpec& p, bool listing) {
  Json request = Json::object();
  request.set("model", Json(p.model));
  request.set("source", Json(p.kernel));
  Json options = Json::object();
  options.set("listing", Json(listing));
  request.set("options", std::move(options));
  return request.dump() + "\n";
}

bool reply_matches(const Json& reply, const Wire& w, bool listing) {
  if (!reply["ok"].as_bool()) return false;
  if (reply["code_size"].as_int() != static_cast<std::int64_t>(w.words))
    return false;
  if (!listing) return true;
  const Json& lines = reply["listing"];
  if (lines.size() != w.listing.size()) return false;
  for (std::size_t i = 0; i < w.listing.size(); ++i)
    if (lines.at(i).as_string() != w.listing[i]) return false;
  return true;
}

struct Job {
  std::size_t program = 0;
  bool listing = false;
};

/// Seeded stream in cycles of kCycleJobs: 30 on ref and 6 on each of the
/// other five models, each model's programs taken round-robin, shuffled
/// within the cycle. Every cycle holds the same mix.
constexpr std::size_t kCycleJobs = 60;

std::vector<Job> job_stream(std::uint64_t seed,
                            const std::vector<ProgramSpec>& mix) {
  constexpr int kCycles = 128;
  std::map<std::string, std::vector<std::size_t>> by_model;
  for (std::size_t i = 0; i < mix.size(); ++i)
    by_model[mix[i].model].push_back(i);
  std::map<std::string, std::size_t> next;  // round-robin position per model
  testgen::Rng rng(sub_seed(seed, 3));
  std::vector<Job> jobs;
  for (int c = 0; c < kCycles; ++c) {
    const std::size_t base = jobs.size();
    for (const std::string& model : builtin_models()) {
      const std::vector<std::size_t>& pool = by_model.at(model);
      const int share = model == "ref" ? 30 : 6;
      for (int k = 0; k < share; ++k)
        jobs.push_back({pool[next[model]++ % pool.size()],
                        rng.chance(1, kListingEvery)});
    }
    for (std::size_t i = jobs.size() - base; i > 1; --i)
      std::swap(jobs[base + i - 1], jobs[base + rng.below(i)]);
  }
  return jobs;
}

/// Server-reported per-job times from the wire "times" object.
struct WireTimes {
  double queue = 0, target = 0, frontend = 0, compile = 0;
};

WireTimes times_of(const Json& reply) {
  const Json& t = reply["times"];
  return {t["queue_ms"].as_number(), t["target_ms"].as_number(),
          t["frontend_ms"].as_number(), t["compile_ms"].as_number()};
}

struct Phase {
  TimedRun run;
  std::vector<WireTimes> times;
};

/// Records one served job: a span from issue to reply, with the
/// server-reported intervals laid out in pipeline order from the issue time
/// and the remainder as wire time.
void record_spans(Tracer& tracer, std::int64_t issued, std::int64_t received,
                  const WireTimes& t) {
  const auto ns = [](double ms) { return static_cast<std::int64_t>(ms * 1e6); };
  const int job = tracer.record(kSpanJob, -1, issued, received);
  std::int64_t cursor = issued;
  for (const auto& [name, ms] :
       {std::pair<std::string_view, double>{"service.queue", t.queue},
        {"service.target", t.target},
        {"ir.frontend", t.frontend},
        {"service.compile", t.compile}}) {
    tracer.record(name, job, cursor, cursor + ns(ms));
    cursor += ns(ms);
  }
  tracer.record("net.wire", job, cursor, received);
}

/// Runs the job stream for `seconds` through `s`, checking every reply;
/// with a tracer, records each job's spans as its reply arrives.
Phase run_phase(Served& s, const std::vector<Job>& jobs,
                const std::vector<Wire>& wire,
                const std::vector<ProgramSpec>& mix, double seconds,
                Tracer* tracer, Report& report) {
  Phase phase;
  const CpuTimes cpu0 = cpu_times();
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  pump(
      *s.client,
      [&](std::size_t i) -> const std::string& {
        const Job& j = jobs[i % jobs.size()];
        return j.listing ? wire[j.program].with_listing : wire[j.program].plain;
      },
      [&](std::size_t) { return now_ns() < end; },
      [&](std::size_t i, std::int64_t issued, std::int64_t received,
          const Json& reply) {
        const Job& j = jobs[i % jobs.size()];
        report.attempt();
        phase.run.add(ms_between(issued, received),
                      ms_between(start, received) / 1e3, cpu_since(cpu0),
                      i / kCycleJobs);
        phase.times.push_back(times_of(reply));
        if (tracer) record_spans(*tracer, issued, received, phase.times.back());
        if (!reply_matches(reply, wire[j.program], j.listing)) {
          report.count_failed();
          report.fail(mix[j.program].name + ": served reply differs from the "
                      "verified compile: " + reply["error"].as_string());
        }
      },
      report);
  phase.run.wall_s = ms_between(start, now_ns()) / 1e3;
  phase.run.sys_share = sys_share_since(cpu0);
  return phase;
}

/// Total BDD nodes over the server's six hot targets.
std::size_t server_bdd_nodes(Served& s) {
  std::size_t n = 0;
  for (const std::string& m : builtin_models()) {
    util::DiagnosticSink diags;
    if (auto t = s.service->registry().get_model(m, diags))
      n += t->base->mgr->node_count();
  }
  return n;
}

/// Starts a server and warms it: one retarget-only request per model, then
/// every distinct program once (with its listing, checked).
std::unique_ptr<Served> warm_server(std::size_t workers,
                                    const std::vector<Wire>& wire,
                                    const std::vector<ProgramSpec>& mix,
                                    std::size_t* bdd_added, Report& report) {
  std::unique_ptr<Served> s = start_server(workers, report);
  if (!s) return nullptr;
  const std::vector<std::string> models = builtin_models();
  pump(
      *s->client,
      [&](std::size_t i) {
        return "{\"model\":" + Json::quote(models[i]) + "}\n";
      },
      [&](std::size_t i) { return i < models.size(); },
      [&](std::size_t i, std::int64_t, std::int64_t, const Json& reply) {
        if (!reply["ok"].as_bool())
          report.fail("retarget " + models[i] + " over the wire: " +
                      reply["error"].as_string());
      },
      report);
  const std::size_t nodes0 = bdd_added ? server_bdd_nodes(*s) : 0;
  pump(
      *s->client, [&](std::size_t i) { return wire[i].with_listing; },
      [&](std::size_t i) { return i < wire.size(); },
      [&](std::size_t i, std::int64_t, std::int64_t, const Json& reply) {
        if (!reply_matches(reply, wire[i], true))
          report.fail(mix[i].name + ": warm-up reply differs from the "
                      "verified compile: " + reply["error"].as_string());
      },
      report);
  if (bdd_added) *bdd_added = server_bdd_nodes(*s) - nodes0;
  return s;
}

}  // namespace

void run_serve_shared(const Args& args, Report& report) {
  std::vector<ProgramSpec> mix = builtin_mix(args.seed);
  std::vector<std::string> texts;
  for (const ProgramSpec& p : mix) texts.push_back(p.kernel);
  const std::uint64_t program_set = digest(texts);
  std::printf("serve_shared: %zu distinct programs, window %zu, %zu workers\n",
              mix.size(), kWindow, kWorkers);

  // Reference: what the server must answer, compiled in-process from the
  // same kernel text the requests carry.
  for (ProgramSpec& p : mix) {
    util::DiagnosticSink diags;
    std::optional<ir::Program> parsed = ir::parse_kernel(p.kernel, diags);
    if (!parsed) {
      report.fail(p.name + ": kernel text does not parse: " +
                  diags.first_error());
      return;
    }
    p.program = std::make_shared<const ir::Program>(std::move(*parsed));
  }
  Targets targets = retarget_builtins(report);
  select::SelectScratch scratch;
  const auto results = compile_all(targets, mix, scratch, report);
  const std::vector<Output> expected = outputs_of(results);
  LayerStats layers;
  verify_mix(targets, mix, results, expected, report, layers.counts);

  std::vector<Wire> wire(mix.size());
  EndToEnd e2e;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    wire[i].plain = request_line(mix[i], false);
    wire[i].with_listing = request_line(mix[i], true);
    wire[i].words = expected[i].words;
    for (const std::string& line : util::split(expected[i].listing, '\n'))
      if (!line.empty()) wire[i].listing.push_back(line);
    e2e.code_words += expected[i].words;
  }

  // Set-up, repeated: start the server, retarget over the wire, warm up.
  std::unique_ptr<Served> served;
  std::size_t bdd_added = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    served.reset();
    const std::int64_t t0 = now_ns();
    served = warm_server(kWorkers, wire, mix, &bdd_added, report);
    if (!served) return;
    e2e.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }
  layers.bdd_nodes_added_per_job = double(bdd_added) / double(mix.size());
  print_counts(e2e.code_words, layers, program_set);
  const std::vector<Job> jobs = job_stream(args.seed, mix);

  if (!args.trace) {
    e2e.run = run_phase(*served, jobs, wire, mix, args.seconds, nullptr,
                        report).run;
    add_end_to_end(report, e2e);
    return;
  }

  // Traced run: untraced, traced (client spans with the server-reported
  // intervals as children), then the same jobs on a 1-worker server.
  const double third = args.seconds / 3;
  Phase plain = run_phase(*served, jobs, wire, mix, third, nullptr, report);
  Tracer tracer;
  Phase traced = run_phase(*served, jobs, wire, mix, third, &tracer, report);
  for (std::size_t i = 0; i < traced.times.size(); ++i) {
    const WireTimes& t = traced.times[i];
    layers.queue_ms.push_back(t.queue);
    layers.target_ms.push_back(t.target);
    layers.frontend_ms.push_back(t.frontend);
    layers.compile_ms.push_back(t.compile);
    layers.wire_ms.push_back(traced.run.job_ms[i] - t.queue - t.target -
                             t.frontend - t.compile);
  }
  layers.bdd_nodes_end = double(server_bdd_nodes(*served));
  served.reset();

  std::unique_ptr<Served> single = warm_server(1, wire, mix, nullptr, report);
  if (!single) return;
  Phase one = run_phase(*single, jobs, wire, mix, third, nullptr, report);
  single.reset();
  const std::size_t common = std::min(traced.times.size(), one.times.size());
  std::vector<double> shared_ms, alone_ms;
  for (std::size_t i = 0; i < common; ++i) {
    shared_ms.push_back(traced.times[i].compile);
    alone_ms.push_back(one.times[i].compile);
  }
  const double alone = median(alone_ms);
  layers.compile_inflation = alone > 0 ? median(shared_ms) / alone : 0;
  layers.sys_cpu_share = plain.run.sys_share;
  std::printf("compile_ms p50 over the same %zu jobs: %.4f at %zu workers, "
              "%.4f at 1 worker\n",
              common, median(shared_ms), kWorkers, alone);
  layers.trace_overhead_ms =
      median(traced.run.job_ms) - median(plain.run.job_ms);
  print_overhead(plain.run.job_ms, traced.run.job_ms);

  // Compile-stage spans: the traced path over every distinct program.
  Tracer stages;
  for (int rep = 0; rep < 3; ++rep)
    for (std::size_t i = 0; i < mix.size(); ++i) {
      if (!results[i]) continue;
      Scope job(&stages, kSpanJob);
      util::DiagnosticSink diags;
      if (!traced_compile(*targets.at(mix[i].model), *mix[i].program,
                          core::CompileOptions{}, diags, &scratch, &stages))
        report.fail(mix[i].name + ": traced compile failed");
    }
  layers.take_compile_spans(stages);
  model_probe(targets, layers, report);
  retarget_probe(args.work_dir, layers, report);
  add_layers(report, layers);
  if (!args.trace_out.empty()) tracer.write_chrome(args.trace_out);
}

}  // namespace perfbench
