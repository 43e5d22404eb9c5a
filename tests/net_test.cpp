// Socket front end (src/net/): protocol equivalence against the sequential
// baseline, framing robustness, backpressure, and registry sharding.
#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/server.h"
#include "net/shard.h"
#include "net/timerwheel.h"
#include "obs/metrics.h"
#include "service/json.h"
#include "service/service.h"
#include "service/wire.h"
#include "util/failpoint.h"

using namespace record;
using service::Json;

namespace {

constexpr const char* kKernel =
    "kernel k;\\nbind a: R0;\\ncell x: mem[1];\\na = a + x;";

std::string compile_request(const std::string& tag, const std::string& model,
                            bool listing = false) {
  return "{\"model\": \"" + model + "\", \"tag\": \"" + tag +
         "\", \"source\": \"" + kKernel +
         "\", \"options\": {\"listing\": " + (listing ? "true" : "false") +
         "}}";
}

/// Blocking test client over one connection; reads are line-buffered with a
/// receive timeout so a server bug fails the test instead of hanging it.
struct Client {
  int fd = -1;
  std::string buffered;

  static Client connect_tcp(std::uint16_t port) {
    Client c;
    c.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(c.fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0)
        << std::strerror(errno);
    c.set_timeout();
    return c;
  }

  static Client connect_unix(const std::string& path) {
    Client c;
    c.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(c.fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    EXPECT_EQ(::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0)
        << std::strerror(errno);
    c.set_timeout();
    return c;
  }

  void set_timeout(int seconds = 60) {
    timeval tv{};
    tv.tv_sec = seconds;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }

  /// Writes every line of `lines` with a single send.
  void send_lines(const std::vector<std::string>& lines) {
    std::string framed;
    for (const std::string& line : lines) framed += line + "\n";
    ASSERT_EQ(::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(framed.size()));
  }

  void send_line(const std::string& line) {
    std::string framed = line + "\n";
    ASSERT_EQ(::send(fd, framed.data(), framed.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(framed.size()));
  }

  /// One response line (without the newline); empty on EOF/timeout.
  std::string read_line() {
    for (;;) {
      std::size_t nl = buffered.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffered.substr(0, nl);
        buffered.erase(0, nl + 1);
        return line;
      }
      char buf[65536];
      ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) return {};
      buffered.append(buf, static_cast<std::size_t>(n));
    }
  }

  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  ~Client() { close(); }
  Client() = default;
  Client(Client&& o) noexcept : fd(o.fd), buffered(std::move(o.buffered)) {
    o.fd = -1;
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
};

/// Sends `batches` batches of `per_batch` pipelined compile requests, each
/// batch in one send, and reads every reply before the next batch. Returns
/// the fastest batch after the first, in ms from its send to its last reply.
double fastest_pipelined_batch_ms(Client& client, int batches, int per_batch) {
  double best_ms = 1e9;
  for (int b = 0; b < batches; ++b) {
    std::vector<std::string> lines;
    for (int r = 0; r < per_batch; ++r)
      lines.push_back(compile_request(
          "b" + std::to_string(b) + "r" + std::to_string(r), "demo", true));
    const auto t0 = std::chrono::steady_clock::now();
    client.send_lines(lines);
    for (int r = 0; r < per_batch; ++r) {
      std::optional<Json> reply = Json::parse(client.read_line());
      EXPECT_TRUE(reply && (*reply)["ok"].as_bool(false))
          << "batch " << b << " reply " << r;
    }
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (b > 0) best_ms = std::min(best_ms, ms);
  }
  return best_ms;
}

/// Responses carry wall-clock timings that legitimately differ between runs;
/// equality is over everything else. Both sides get "times" nulled the same
/// way, then the comparison is on exact bytes.
std::string normalize(const std::string& response_line) {
  std::optional<Json> parsed = Json::parse(response_line);
  if (!parsed) return "<unparseable: " + response_line + ">";
  if (parsed->contains("times")) parsed->set("times", Json());
  return parsed->dump();
}

}  // namespace

TEST(ShardRing, DeterministicAndCovering) {
  net::ShardRing a(4), b(4);
  std::set<std::size_t> owners;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    std::size_t owner = a.owner_of(key * 0x9E3779B97F4A7C15ull);
    EXPECT_EQ(owner, b.owner_of(key * 0x9E3779B97F4A7C15ull));
    EXPECT_LT(owner, 4u);
    owners.insert(owner);
  }
  EXPECT_EQ(owners.size(), 4u) << "some shard owns nothing";

  // Consistent hashing: growing the ring by one shard remaps only part of
  // the key space (modulo hashing would remap ~all of it).
  net::ShardRing grown(5);
  std::size_t moved = 0;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    std::uint64_t k = key * 0x9E3779B97F4A7C15ull;
    if (a.owner_of(k) != grown.owner_of(k)) ++moved;
  }
  EXPECT_LT(moved, 600u) << "ring growth remapped almost everything";
  EXPECT_GT(moved, 0u);
}

TEST(LineServer, PipelinedClientsMatchSequentialBaseline) {
  service::CompileService::Options opts;
  opts.workers = 4;
  opts.queue_capacity = 8;
  service::CompileService svc(opts);
  net::LineServer server(svc, net::LineServer::Options{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_GT(server.port(), 0);

  // 4 clients, each pipelining its whole request batch up front (listings
  // on, a control command mid-stream, a parse error, and compile errors).
  constexpr int kClients = 4;
  constexpr int kPerClient = 6;
  std::vector<std::vector<std::string>> requests(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int r = 0; r < kPerClient; ++r) {
      std::string tag = "c" + std::to_string(c) + "r" + std::to_string(r);
      if (r == 2) {
        requests[c].push_back(compile_request(tag, "nosuchmodel"));
      } else if (r == 4) {
        requests[c].push_back(compile_request(tag, "demo", true));
      } else {
        requests[c].push_back(compile_request(tag, "demo"));
      }
    }
  }

  // The sequential baseline shares the exact job core (run_job) and codec
  // (wire.h) with the server, so the equality below proves the socket path
  // changes nothing about the answers.
  std::vector<std::vector<std::string>> expected(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (const std::string& line : requests[c]) {
      std::optional<Json> request = Json::parse(line);
      ASSERT_TRUE(request) << line;
      service::JobResult result = service::CompileService::run_job(
          service::job_from_request(*request, false), svc.registry());
      expected[c].push_back(
          normalize(service::response_from_result(result).dump()));
    }
  }

  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client = Client::connect_tcp(server.port());
      for (const std::string& line : requests[c]) client.send_line(line);
      for (int r = 0; r < kPerClient; ++r)
        got[c].push_back(normalize(client.read_line()));
    });
  }
  for (std::thread& t : threads) t.join();

  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(got[c].size(), expected[c].size());
    for (int r = 0; r < kPerClient; ++r)
      EXPECT_EQ(got[c][r], expected[c][r]) << "client " << c << " response "
                                           << r;
  }
  server.stop();
}

TEST(LineServer, MalformedLineAnswersErrorAndConnectionSurvives) {
  service::CompileService::Options opts;
  opts.workers = 2;
  service::CompileService svc(opts);
  net::LineServer server(svc, net::LineServer::Options{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client = Client::connect_tcp(server.port());
  client.send_line("this is not json");
  client.send_line("[1,2,3]");  // valid JSON, not an object
  client.send_line(compile_request("after", "demo"));

  std::optional<Json> first = Json::parse(client.read_line());
  ASSERT_TRUE(first);
  EXPECT_FALSE((*first)["ok"].as_bool(true));
  EXPECT_NE((*first)["error"].as_string().find("bad request"),
            std::string::npos);
  std::optional<Json> second = Json::parse(client.read_line());
  ASSERT_TRUE(second);
  EXPECT_FALSE((*second)["ok"].as_bool(true));
  std::optional<Json> third = Json::parse(client.read_line());
  ASSERT_TRUE(third);
  EXPECT_TRUE((*third)["ok"].as_bool(false))
      << "connection did not survive the bad lines";
  EXPECT_EQ((*third)["tag"].as_string(), "after");
  server.stop();
}

TEST(LineServer, OversizedLineFailsTheConnectionOnly) {
  service::CompileService::Options opts;
  opts.workers = 2;
  service::CompileService svc(opts);
  net::LineServer::Options sopts;
  sopts.max_line = 1024;
  net::LineServer server(svc, sopts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client victim = Client::connect_tcp(server.port());
  std::string huge(4096, 'x');
  victim.send_line(huge);
  std::optional<Json> reply = Json::parse(victim.read_line());
  ASSERT_TRUE(reply);
  EXPECT_FALSE((*reply)["ok"].as_bool(true));
  EXPECT_NE((*reply)["error"].as_string().find("too long"),
            std::string::npos);
  EXPECT_TRUE(victim.read_line().empty()) << "connection stayed open";

  // A line sent after the oversized one is dropped with the connection,
  // never answered.
  Client trailing = Client::connect_tcp(server.port());
  trailing.set_timeout(10);
  trailing.send_lines({huge, compile_request("after", "demo")});
  reply = Json::parse(trailing.read_line());
  ASSERT_TRUE(reply);
  EXPECT_NE((*reply)["error"].as_string().find("too long"),
            std::string::npos);
  EXPECT_TRUE(trailing.read_line().empty()) << "line after it was answered";
  char byte;
  EXPECT_EQ(::recv(trailing.fd, &byte, 1, MSG_DONTWAIT), 0)
      << "connection stayed open";

  // The server itself is unharmed: a fresh connection compiles fine.
  Client fresh = Client::connect_tcp(server.port());
  fresh.send_line(compile_request("fresh", "demo"));
  std::optional<Json> ok = Json::parse(fresh.read_line());
  ASSERT_TRUE(ok);
  EXPECT_TRUE((*ok)["ok"].as_bool(false));
  server.stop();
}

TEST(LineServer, SlowReaderBackpressureLosesNothing) {
  // A tiny compile queue and a 1-byte write watermark force both
  // backpressure paths: try_submit_async rejections park jobs, and the
  // unread responses pause the connection's reads. The client then drains
  // everything and must see every response, in order.
  service::CompileService::Options opts;
  opts.workers = 2;
  opts.queue_capacity = 1;
  service::CompileService svc(opts);
  net::LineServer::Options sopts;
  sopts.max_write_buffer = 1;
  net::LineServer server(svc, sopts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr int kRequests = 24;
  Client client = Client::connect_tcp(server.port());
  for (int r = 0; r < kRequests; ++r)
    client.send_line(
        compile_request("slow" + std::to_string(r), "demo", true));
  // Do not read yet: let responses pile up against the watermark.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (int r = 0; r < kRequests; ++r) {
    std::optional<Json> reply = Json::parse(client.read_line());
    ASSERT_TRUE(reply) << "response " << r << " lost";
    EXPECT_EQ((*reply)["tag"].as_string(), "slow" + std::to_string(r))
        << "responses out of order";
    EXPECT_TRUE((*reply)["ok"].as_bool(false));
  }
  server.stop();
}

TEST(LineServer, PipelineLimitResumesHeldBackLines) {
  // With one in-flight slot per connection, every line after the first
  // waits in the input buffer; each answer must parse the next one,
  // although the client sends nothing more. A client that half-closes
  // right after sending still gets every reply.
  service::CompileService::Options opts;
  opts.workers = 2;
  service::CompileService svc(opts);
  net::LineServer::Options sopts;
  sopts.max_pipeline = 1;
  net::LineServer server(svc, sopts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr int kRequests = 4;
  for (bool half_close : {false, true}) {
    SCOPED_TRACE(half_close ? "half-closed" : "open");
    Client client = Client::connect_tcp(server.port());
    client.set_timeout(10);
    std::vector<std::string> lines;
    for (int r = 0; r < kRequests; ++r)
      lines.push_back(compile_request("held" + std::to_string(r), "demo"));
    client.send_lines(lines);
    if (half_close) {
      ASSERT_EQ(::shutdown(client.fd, SHUT_WR), 0);
    }
    for (int r = 0; r < kRequests; ++r) {
      std::optional<Json> reply = Json::parse(client.read_line());
      ASSERT_TRUE(reply) << "response " << r << " never came";
      EXPECT_EQ((*reply)["tag"].as_string(), "held" + std::to_string(r));
      EXPECT_TRUE((*reply)["ok"].as_bool(false));
    }
    if (half_close) {
      EXPECT_TRUE(client.read_line().empty()) << "connection stayed open";
    }
  }

  // A parse error and a control command answer without a compile job, so
  // no completion follows them; the lines behind them must still be parsed.
  Client quick = Client::connect_tcp(server.port());
  quick.set_timeout(10);
  quick.send_lines({"not json", R"({"cmd": "stats"})",
                    compile_request("after", "demo")});
  std::optional<Json> reply = Json::parse(quick.read_line());
  ASSERT_TRUE(reply) << "parse error never answered";
  EXPECT_FALSE((*reply)["ok"].as_bool(true));
  reply = Json::parse(quick.read_line());
  ASSERT_TRUE(reply) << "line after the parse error never answered";
  EXPECT_EQ((*reply)["cmd"].as_string(), "stats");
  reply = Json::parse(quick.read_line());
  ASSERT_TRUE(reply) << "line after the stats command never answered";
  EXPECT_EQ((*reply)["tag"].as_string(), "after");
  EXPECT_TRUE((*reply)["ok"].as_bool(false));
  server.stop();
}

TEST(LineServer, ClientDisconnectMidStreamLeavesServerServing) {
  service::CompileService::Options opts;
  opts.workers = 2;
  service::CompileService svc(opts);
  net::LineServer server(svc, net::LineServer::Options{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  {
    Client doomed = Client::connect_tcp(server.port());
    for (int r = 0; r < 8; ++r)
      doomed.send_line(compile_request("doomed" + std::to_string(r), "demo",
                                       true));
    doomed.close();  // vanish with every response still in flight
  }
  // The dropped connection must not take the daemon down (SIGPIPE/EPIPE on
  // the write path) nor wedge the loop.
  Client survivor = Client::connect_tcp(server.port());
  survivor.send_line(compile_request("live", "demo"));
  std::optional<Json> reply = Json::parse(survivor.read_line());
  ASSERT_TRUE(reply);
  EXPECT_TRUE((*reply)["ok"].as_bool(false));
  EXPECT_EQ((*reply)["tag"].as_string(), "live");
  server.stop();
}

TEST(LineServer, UnixSocketServes) {
  std::string path =
      (std::filesystem::temp_directory_path() / "recordd-test.sock").string();
  service::CompileService::Options opts;
  opts.workers = 2;
  service::CompileService svc(opts);
  net::LineServer::Options sopts;
  sopts.unix_path = path;
  net::LineServer server(svc, sopts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client = Client::connect_unix(path);
  client.send_line(compile_request("ux", "demo"));
  std::optional<Json> reply = Json::parse(client.read_line());
  ASSERT_TRUE(reply);
  EXPECT_TRUE((*reply)["ok"].as_bool(false));
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(path)) << "socket file not unlinked";
}

TEST(LineServer, ShardingRejectsForeignTargetsAndReportsOwnership) {
  service::CompileService::Options opts;
  opts.workers = 2;
  service::CompileService svc(opts);

  // Compute each model's owner the way every instance would.
  core::RetargetOptions ropts = svc.registry().options().retarget;
  net::ShardRing ring(2);
  auto owner_of_model = [&](const std::string& model) {
    std::optional<Json> req =
        Json::parse("{\"model\": \"" + model + "\"}");
    return ring.owner_of(net::target_key_of(*req, ropts));
  };
  std::size_t demo_owner = owner_of_model("demo");

  // Run the instance that does NOT own "demo".
  net::LineServer::Options sopts;
  sopts.shard.count = 2;
  sopts.shard.index = 1 - demo_owner;
  net::LineServer server(svc, sopts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client = Client::connect_tcp(server.port());
  client.send_line(compile_request("foreign", "demo"));
  std::optional<Json> rejected = Json::parse(client.read_line());
  ASSERT_TRUE(rejected);
  EXPECT_FALSE((*rejected)["ok"].as_bool(true));
  EXPECT_EQ((*rejected)["owner"].as_int(-1),
            static_cast<std::int64_t>(demo_owner));
  EXPECT_EQ((*rejected)["shards"].as_int(0), 2);

  // The shard introspection command agrees.
  client.send_line("{\"cmd\": \"shard\", \"model\": \"demo\"}");
  std::optional<Json> info = Json::parse(client.read_line());
  ASSERT_TRUE(info);
  EXPECT_TRUE((*info)["ok"].as_bool(false));
  EXPECT_EQ((*info)["shards"].as_int(0), 2);
  EXPECT_EQ((*info)["owner"].as_int(-1),
            static_cast<std::int64_t>(demo_owner));
  EXPECT_FALSE((*info)["owned"].as_bool(true));
  server.stop();
}

TEST(TimerWheel, ArmsCancelsRearmsAndExpires) {
  net::TimerWheel wheel(64);
  EXPECT_EQ(wheel.next_timeout_ms(0), -1);  // nothing armed

  wheel.arm(1, 100);
  wheel.arm(2, 200);
  wheel.arm(3, 5'000'000);  // far future: wait is clamped to one minute
  EXPECT_EQ(wheel.next_timeout_ms(0), 100);
  EXPECT_EQ(wheel.next_timeout_ms(50), 50);
  EXPECT_EQ(wheel.next_timeout_ms(150), 0);  // timer 1 is already due

  std::vector<std::uint64_t> fired;
  wheel.expire(99, fired);
  EXPECT_TRUE(fired.empty());  // nothing due yet

  wheel.cancel(1);
  wheel.arm(2, 400);  // re-arm: only the new deadline counts
  wheel.expire(300, fired);
  EXPECT_TRUE(fired.empty());  // 1 cancelled, 2 moved to 400
  wheel.expire(450, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 2u);
  EXPECT_EQ(wheel.armed(), 1u);  // only the far-future timer remains

  // A deadline armed in the past lands in the next unscanned tick (its own
  // was already swept), so it fires up to one tick late — at 512 here, one
  // tick past the 450 sweep — but never silently skips.
  fired.clear();
  wheel.arm(4, 10);
  wheel.expire(520, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 4u);

  // A gap far longer than one wheel revolution must not skip timers.
  fired.clear();
  wheel.arm(5, 600);
  wheel.expire(600 + 64 * 256 * 3, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 5u);

  EXPECT_EQ(wheel.next_timeout_ms(5'000'000), 0);
  fired.clear();
  wheel.expire(5'000'000, fired);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 3u);
  EXPECT_EQ(wheel.armed(), 0u);
}

TEST(LineServer, IdleConnectionsAreClosedAndCounted) {
  service::CompileService::Options opts;
  opts.workers = 1;
  service::CompileService svc(opts);
  net::LineServer::Options sopts;
  sopts.idle_timeout_ms = 150;
  net::LineServer server(svc, sopts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::uint64_t closed_before =
      obs::metrics().counter("net.conn.idle_closed").value();
  Client client = Client::connect_tcp(server.port());
  // Activity resets the idle clock: a served request does not count as idle.
  client.send_line(compile_request("warm", "demo"));
  std::optional<Json> reply = Json::parse(client.read_line());
  ASSERT_TRUE(reply);
  EXPECT_TRUE((*reply)["ok"].as_bool(false));
  // Then the connection goes quiet; the server must close it (EOF on read).
  EXPECT_EQ(client.read_line(), "");
  EXPECT_EQ(obs::metrics().counter("net.conn.idle_closed").value(),
            closed_before + 1);

  // The listener itself keeps serving fresh connections.
  Client fresh = Client::connect_tcp(server.port());
  fresh.send_line(compile_request("fresh", "demo"));
  std::optional<Json> ok = Json::parse(fresh.read_line());
  ASSERT_TRUE(ok);
  EXPECT_TRUE((*ok)["ok"].as_bool(false));
  server.stop();
}

TEST(LineServer, SaturationShedsOldestParkedWithBackoffHint) {
  // One connection can hold at most one parked request (parse_lines stops
  // at a parked head to preserve order), so saturation shedding is a
  // cross-connection affair: a later client's park evicts the globally
  // oldest parked request of an earlier one.
  util::failpoint_disarm_all();
  service::CompileService::Options opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  service::CompileService svc(opts);
  // Slow every job so the queue fills and requests park on the connections.
  ASSERT_TRUE(util::failpoint_arm("service.worker.job", "sleep:60"));

  net::LineServer::Options sopts;
  sopts.max_parked = 1;  // server saturates after one parked request
  net::LineServer server(svc, sopts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::uint64_t shed_before =
      obs::metrics().counter("net.shed").value();
  // First client: r0 runs (worker sleeps 60ms), r1 queues, r2 parks.
  Client first = Client::connect_tcp(server.port());
  for (int r = 0; r < 3; ++r)
    first.send_line(compile_request("a" + std::to_string(r), "demo"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Second client: its park hits the max_parked=1 budget and sheds a2.
  Client second = Client::connect_tcp(server.port());
  for (int r = 0; r < 2; ++r)
    second.send_line(compile_request("b" + std::to_string(r), "demo"));

  int ok = 0, overloaded = 0;
  auto drain = [&](Client& client, const char* prefix, int n) {
    for (int r = 0; r < n; ++r) {
      std::optional<Json> reply = Json::parse(client.read_line());
      ASSERT_TRUE(reply) << prefix << r;
      // Pipelining order survives shedding: responses match request order.
      EXPECT_EQ((*reply)["tag"].as_string(), prefix + std::to_string(r));
      if ((*reply)["ok"].as_bool(false)) {
        ++ok;
      } else {
        ++overloaded;
        EXPECT_NE((*reply)["error"].as_string().find("overloaded"),
                  std::string::npos)
            << (*reply)["error"].as_string();
        EXPECT_GE((*reply)["retry_after_ms"].as_int(0), 1);
      }
    }
  };
  drain(first, "a", 3);
  drain(second, "b", 2);
  util::failpoint_disarm_all();
  EXPECT_EQ(ok + overloaded, 5);
  EXPECT_GT(ok, 0);          // the server still does real work
  EXPECT_GT(overloaded, 0);  // and it genuinely shed under saturation
  EXPECT_GE(obs::metrics().counter("net.shed").value(),
            shed_before + static_cast<std::uint64_t>(overloaded));
  server.stop();
}

TEST(LineServer, ParkedRequestsShedAfterRequestTimeout) {
  util::failpoint_disarm_all();
  service::CompileService::Options opts;
  opts.workers = 1;
  opts.queue_capacity = 1;
  service::CompileService svc(opts);
  ASSERT_TRUE(util::failpoint_arm("service.worker.job", "sleep:50"));

  net::LineServer::Options sopts;
  sopts.request_timeout_ms = 30;  // parked longer than this = shed
  net::LineServer server(svc, sopts);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  constexpr int kRequests = 5;
  Client client = Client::connect_tcp(server.port());
  for (int r = 0; r < kRequests; ++r)
    client.send_line(compile_request("t" + std::to_string(r), "demo"));

  int ok = 0, timed_out = 0;
  for (int r = 0; r < kRequests; ++r) {
    std::optional<Json> reply = Json::parse(client.read_line());
    ASSERT_TRUE(reply) << "response " << r;
    EXPECT_EQ((*reply)["tag"].as_string(), "t" + std::to_string(r));
    if ((*reply)["ok"].as_bool(false)) {
      ++ok;
    } else {
      ++timed_out;
      EXPECT_NE((*reply)["error"].as_string().find("timed out"),
                std::string::npos)
          << (*reply)["error"].as_string();
      EXPECT_GE((*reply)["retry_after_ms"].as_int(0), 1);
    }
  }
  util::failpoint_disarm_all();
  EXPECT_EQ(ok + timed_out, kRequests);
  EXPECT_GT(timed_out, 0);
  server.stop();
}

TEST(LineServer, DeadlineRidesTheWireEndToEnd) {
  util::failpoint_disarm_all();
  service::CompileService::Options opts;
  opts.workers = 1;
  opts.queue_capacity = 8;
  service::CompileService svc(opts);
  // The head job stalls the lone worker long enough for the 1ms-deadline
  // job queued behind it to expire before a worker picks it up.
  ASSERT_TRUE(util::failpoint_arm("service.worker.job", "sleep:30"));

  net::LineServer server(svc, net::LineServer::Options{});
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  Client client = Client::connect_tcp(server.port());
  client.send_line(compile_request("head", "demo"));
  client.send_line(
      "{\"model\": \"demo\", \"tag\": \"doomed\", \"source\": \"" +
      std::string(kKernel) + "\", \"options\": {\"deadline_ms\": 1}}");

  std::optional<Json> head = Json::parse(client.read_line());
  ASSERT_TRUE(head);
  EXPECT_TRUE((*head)["ok"].as_bool(false));

  std::optional<Json> doomed = Json::parse(client.read_line());
  util::failpoint_disarm_all();
  ASSERT_TRUE(doomed);
  EXPECT_EQ((*doomed)["tag"].as_string(), "doomed");
  EXPECT_FALSE((*doomed)["ok"].as_bool(true));
  EXPECT_TRUE((*doomed)["deadline_exceeded"].as_bool());
  EXPECT_GE((*doomed)["retry_after_ms"].as_int(0), 1);
  EXPECT_NE((*doomed)["error"].as_string().find("deadline_exceeded"),
            std::string::npos);
  server.stop();
}

TEST(LineServer, PipelinedBatchDrainsWithoutDelayedAckStall) {
  // A pipelining client that stops sending and waits for its replies sends
  // no data for its ACKs to ride on. With Nagle on the server socket, the
  // last reply of each drained batch waits for the client's delayed ACK
  // (40 ms or more on Linux); a batch of four tiny compiles on a warm
  // target takes a few ms. The test client sets TCP_NODELAY and writes each
  // batch in one send, so only the server's side is under test; the same
  // batches over a Unix socket (no Nagle) are the control.
  service::CompileService::Options opts;
  opts.workers = 2;
  service::CompileService svc(opts);
  constexpr int kBatches = 6;
  constexpr int kPerBatch = 4;
  constexpr double kLimitMs = 30;

  net::LineServer tcp(svc, net::LineServer::Options{});
  std::string error;
  ASSERT_TRUE(tcp.start(&error)) << error;
  Client client = Client::connect_tcp(tcp.port());
  int one = 1;
  ASSERT_EQ(::setsockopt(client.fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof one),
            0);
  client.send_line(compile_request("warm", "demo"));  // retargets demo
  ASSERT_FALSE(client.read_line().empty());
  const double tcp_ms =
      fastest_pipelined_batch_ms(client, kBatches, kPerBatch);
  tcp.stop();

  const std::string path =
      (std::filesystem::temp_directory_path() / "recordd-nodelay.sock")
          .string();
  net::LineServer::Options uopts;
  uopts.unix_path = path;
  net::LineServer unix_server(svc, uopts);
  ASSERT_TRUE(unix_server.start(&error)) << error;
  Client unix_client = Client::connect_unix(path);
  const double unix_ms =
      fastest_pipelined_batch_ms(unix_client, kBatches, kPerBatch);
  unix_server.stop();

  EXPECT_LT(unix_ms, kLimitMs) << "control: the batches themselves are slow";
  EXPECT_LT(tcp_ms, kLimitMs)
      << "fastest TCP batch " << tcp_ms << " ms vs " << unix_ms
      << " ms over a Unix socket: a reply waited for a delayed ACK";
}
