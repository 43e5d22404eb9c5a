#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/introspect.h"
#include "service/wire.h"
#include "util/failpoint.h"
#include "util/strings.h"

namespace record::net {

using service::Json;

namespace {

// epoll user-data ids for the two non-connection descriptors; connection
// ids start above these.
constexpr std::uint64_t kListenId = 0;
constexpr std::uint64_t kWakeId = 1;
constexpr std::uint64_t kFirstConnId = 2;

bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Cached metric handles: name resolution takes the registry mutex, and
// read_bytes/write_bytes fire once per event-loop iteration. Registry
// storage is process-lifetime, so the references stay valid.
struct NetCounters {
  obs::Counter& accepted = obs::metrics().counter("net.accepted");
  obs::Counter& closed = obs::metrics().counter("net.closed");
  obs::Counter& read_bytes = obs::metrics().counter("net.read_bytes");
  obs::Counter& write_bytes = obs::metrics().counter("net.write_bytes");
  obs::Counter& requests = obs::metrics().counter("net.requests");
  obs::Counter& responses = obs::metrics().counter("net.responses");
  obs::Counter& oversized = obs::metrics().counter("net.oversized");
  obs::Counter& not_owned = obs::metrics().counter("net.not_owned");
  obs::Counter& queue_stalls = obs::metrics().counter("net.queue_stalls");
  obs::Counter& backpressure_stalls =
      obs::metrics().counter("net.backpressure_stalls");
  obs::Counter& idle_closed = obs::metrics().counter("net.conn.idle_closed");
  obs::Counter& shed = obs::metrics().counter("net.shed");
  obs::Gauge& connections = obs::metrics().gauge("net.connections");
};

NetCounters& net_counters() {
  static NetCounters counters;
  return counters;
}

}  // namespace

LineServer::LineServer(service::CompileService& service, Options options)
    : service_(service), options_(std::move(options)) {
  next_conn_id_ = kFirstConnId;
  if (options_.shard.enabled()) ring_.emplace(options_.shard.count);
}

LineServer::~LineServer() { stop(); }

std::size_t LineServer::pipeline_limit() const {
  return options_.max_pipeline ? options_.max_pipeline : 512;
}

bool LineServer::start(std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error) *error = util::fmt("{}: {}", msg, std::strerror(errno));
    if (listen_fd_ >= 0) ::close(listen_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return false;
  };
  if (started_) return true;

  if (!options_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return fail("socket");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.unix_path.size() >= sizeof addr.sun_path)
      return fail("unix socket path too long");
    std::strncpy(addr.sun_path, options_.unix_path.c_str(),
                 sizeof addr.sun_path - 1);
    ::unlink(options_.unix_path.c_str());  // stale socket from a dead daemon
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0)
      return fail("bind " + options_.unix_path);
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) return fail("socket");
    int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.port);
    if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1)
      return fail("bad listen address " + options_.host);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0)
      return fail("bind " + options_.host);
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0)
      bound_port_ = ntohs(bound.sin_port);
  }
  if (!set_nonblocking(listen_fd_)) return fail("nonblocking listener");
  if (::listen(listen_fd_, 128) != 0) return fail("listen");

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail("epoll_create1");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return fail("eventfd");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0)
    return fail("epoll_ctl listener");
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeId;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0)
    return fail("epoll_ctl eventfd");

  started_ = true;
  loop_ = std::thread([this] { run(); });
  return true;
}

void LineServer::stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    if (stopping_) return;
    stopping_ = true;
    std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof one);
  }
  loop_.join();
  // Wait out callbacks of jobs still running on the workers: they only
  // touch done_mu_/done_/wake_fd_, all of which must outlive them.
  {
    std::unique_lock<std::mutex> lock(done_mu_);
    done_cv_.wait(lock, [&] { return outstanding_ == 0; });
    done_.clear();
  }
  for (auto& [id, conn] : conns_) ::close(conn.fd);
  conns_.clear();
  ::close(listen_fd_);
  ::close(epoll_fd_);
  ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
  started_ = false;
}

void LineServer::run() {
  epoll_event events[64];
  for (;;) {
    // The wheel drives the poll timeout: -1 (block) with no timers armed,
    // otherwise the time to the earliest idle/parked deadline.
    int n = ::epoll_wait(epoll_fd_, events, 64,
                         wheel_.next_timeout_ms(now_ms()));
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // epoll fd gone: nothing left to serve
    }
    for (int i = 0; i < n; ++i) {
      std::uint64_t id = events[i].data.u64;
      if (id == kWakeId) {
        std::uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof drained) > 0) {
        }
        {
          std::lock_guard<std::mutex> lock(done_mu_);
          if (stopping_) return;
        }
        drain_completions();
        continue;
      }
      if (id == kListenId) {
        handle_accept();
        continue;
      }
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn& conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        close_conn(id);
        continue;
      }
      if (events[i].events & EPOLLOUT) handle_writable(conn);
      if (conns_.find(id) == conns_.end()) continue;
      if (events[i].events & EPOLLIN) handle_readable(conn);
    }
    expire_timers(now_ms());
  }
}

void LineServer::expire_timers(std::uint64_t now) {
  if (wheel_.armed() == 0) return;
  std::vector<std::uint64_t> fired;
  wheel_.expire(now, fired);
  for (std::uint64_t tid : fired) {
    const std::uint64_t conn_id = tid / 2;
    auto it = conns_.find(conn_id);
    if (it == conns_.end()) continue;
    Conn& conn = it->second;
    if ((tid & 1) == 0) {
      // Idle timer: armed once at accept, re-checked lazily against the
      // actual last activity so reads never pay a re-arm.
      if (options_.idle_timeout_ms == 0) continue;
      if (now - conn.last_activity_ms >= options_.idle_timeout_ms) {
        std::fprintf(stderr,
                     "recordd: closing conn %llu: idle %llu ms "
                     "(limit %llu ms)\n",
                     static_cast<unsigned long long>(conn_id),
                     static_cast<unsigned long long>(now -
                                                     conn.last_activity_ms),
                     static_cast<unsigned long long>(
                         options_.idle_timeout_ms));
        net_counters().idle_closed.add(1);
        close_conn(conn_id);
      } else {
        wheel_.arm(tid, conn.last_activity_ms + options_.idle_timeout_ms);
      }
      continue;
    }
    // Parked-request timer: shed everything past the timeout (FIFO, so the
    // front is always the oldest), re-arm for the new front.
    if (options_.request_timeout_ms == 0) continue;
    while (!conn.parked.empty() &&
           now - conn.parked.front().parked_at_ms >=
               options_.request_timeout_ms)
      shed_parked(conn,
                  "overloaded: request timed out waiting for queue space");
    if (!conn.parked.empty())
      wheel_.arm(tid, conn.parked.front().parked_at_ms +
                          options_.request_timeout_ms);
    if (conn.parked.empty() && !conn.inbuf.empty()) parse_lines(conn);
    if (conns_.find(conn_id) != conns_.end()) flush_ready(conn);
  }
}

void LineServer::shed_parked(Conn& conn, const char* reason) {
  Parked parked = std::move(conn.parked.front());
  conn.parked.pop_front();
  --parked_total_;
  Json out = Json::object();
  if (!parked.job.tag.empty()) out.set("tag", Json(parked.job.tag));
  out.set("ok", Json(false));
  out.set("error", Json(reason));
  out.set("retry_after_ms",
          Json(static_cast<double>(service_.suggested_backoff_ms())));
  for (Slot& slot : conn.slots) {
    if (slot.serial == parked.serial) {
      slot.text = out.dump();
      slot.done = true;
      break;
    }
  }
  net_counters().shed.add(1);
}

void LineServer::shed_oldest_parked(std::uint64_t skip_flush_id) {
  Conn* oldest = nullptr;
  for (auto& [id, conn] : conns_) {
    if (conn.parked.empty()) continue;
    if (!oldest || conn.parked.front().seq < oldest->parked.front().seq)
      oldest = &conn;
  }
  if (!oldest) return;
  shed_parked(*oldest, "overloaded: parked request shed (server saturated)");
  // Flushing may close the victim; never flush the connection the caller
  // still holds a reference into (it flushes itself after parking).
  if (oldest->id != skip_flush_id) flush_ready(*oldest);
}

void LineServer::handle_accept() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (or a transient error): try next wakeup
    // A flush already sends every ready response in one send; Nagle would
    // only hold back the last reply of a drained batch until the client's
    // delayed ACK (40 ms or more on Linux). Unix sockets have no Nagle.
    if (options_.unix_path.empty()) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    }
    std::uint64_t id = next_conn_id_++;
    Conn& conn = conns_[id];
    conn.fd = fd;
    conn.id = id;
    conn.events = EPOLLIN;
    epoll_event ev{};
    ev.events = conn.events;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      conns_.erase(id);
      continue;
    }
    conn.last_activity_ms = now_ms();
    if (options_.idle_timeout_ms)
      wheel_.arm(id * 2, conn.last_activity_ms + options_.idle_timeout_ms);
    net_counters().accepted.add(1);
    net_counters().connections.add(1);
  }
}

void LineServer::handle_readable(Conn& conn) {
  conn.last_activity_ms = now_ms();
  char buf[16384];
  for (;;) {
    ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
    if (n > 0) {
      net_counters().read_bytes.add(static_cast<std::uint64_t>(n));
      conn.inbuf.append(buf, static_cast<std::size_t>(n));
      // Oversized-line guard before buffering more: a line that cannot end
      // within max_line has lost framing for good.
      if (conn.inbuf.size() > options_.max_line &&
          conn.inbuf.find('\n') == std::string::npos) {
        net_counters().oversized.add(1);
        Json err = Json::object();
        err.set("ok", Json(false));
        err.set("error", Json("request line too long"));
        conn.slots.push_back(
            Slot{conn.next_serial++, true, err.dump(), std::nullopt});
        conn.eof = true;  // close after the error flushes
        conn.inbuf.clear();
        break;
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // 0 = clean EOF; anything else is a dead peer. Either way: no more
    // requests, but responses already in flight still flush.
    conn.eof = true;
    break;
  }
  parse_lines(conn);
  flush_ready(conn);
}

void LineServer::parse_lines(Conn& conn) {
  std::size_t start = 0;
  for (;;) {
    if (!conn.parked.empty()) break;  // preserve submission order
    if (conn.slots.size() >= pipeline_limit()) break;
    std::size_t nl = conn.inbuf.find('\n', start);
    if (nl == std::string::npos) break;
    std::string_view line(conn.inbuf.data() + start, nl - start);
    start = nl + 1;
    ++conn.lineno;
    if (util::trim(line).empty()) continue;
    net_counters().requests.add(1);
    if (line.size() > options_.max_line) {
      net_counters().oversized.add(1);
      Json err = Json::object();
      err.set("ok", Json(false));
      err.set("error", Json("request line too long"));
      conn.slots.push_back(
          Slot{conn.next_serial++, true, err.dump(), std::nullopt});
      conn.eof = true;  // close after the error flushes; drop what follows
      start = conn.inbuf.size();
      break;
    }
    std::string error;
    std::optional<Json> request = Json::parse(line, &error);
    if (!request || !request->is_object()) {
      conn.slots.push_back(Slot{conn.next_serial++, true,
                                service::bad_request_line(conn.lineno, error),
                                std::nullopt});
      continue;
    }
    if (request->contains("cmd")) {
      // Deferred like the stdio printer: evaluated when it reaches the
      // front, so a stats response counts every job answered above it.
      conn.slots.push_back(
          Slot{conn.next_serial++, false, {}, std::move(*request)});
      continue;
    }
    if (ring_) {
      std::size_t owner = ring_->owner_of(target_key_of(
          *request, service_.registry().options().retarget));
      if (owner != options_.shard.index) {
        net_counters().not_owned.add(1);
        conn.slots.push_back(
            Slot{conn.next_serial++, true,
                 not_owned_response(*request, owner, options_.shard.count)
                     .dump(),
                 std::nullopt});
        continue;
      }
    }
    std::uint64_t serial = conn.next_serial++;
    conn.slots.push_back(Slot{serial, false, {}, std::nullopt});
    service::CompileJob job =
        service::job_from_request(*request, options_.default_listing);
    if (job.deadline_ms == 0) job.deadline_ms = options_.default_deadline_ms;
    submit_or_park(conn, serial, std::move(job));
  }
  conn.inbuf.erase(0, start);
}

bool LineServer::try_submit(std::uint64_t conn_id, std::uint64_t serial,
                            service::CompileJob& job) {
  service::CompileService::Callback done =
      [this, conn_id, serial](service::JobResult result) {
        std::lock_guard<std::mutex> lock(done_mu_);
        done_.push_back(Done{conn_id, serial, std::move(result)});
        --outstanding_;
        done_cv_.notify_all();
        std::uint64_t one = 1;
        (void)!::write(wake_fd_, &one, sizeof one);
      };
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    ++outstanding_;  // claimed up front so stop() never misses a callback
  }
  if (service_.try_submit_async(job, done)) return true;
  std::lock_guard<std::mutex> lock(done_mu_);
  --outstanding_;
  return false;
}

void LineServer::submit_or_park(Conn& conn, std::uint64_t serial,
                                service::CompileJob job) {
  if (!try_submit(conn.id, serial, job)) {
    net_counters().queue_stalls.add(1);
    // Saturation: make room by shedding the globally oldest parked request
    // before this one parks — deterministic oldest-first under overload.
    if (options_.max_parked && parked_total_ >= options_.max_parked)
      shed_oldest_parked(conn.id);
    const std::uint64_t now = now_ms();
    conn.parked.push_back(Parked{serial, ++park_seq_, now, std::move(job)});
    ++parked_total_;
    if (options_.request_timeout_ms && conn.parked.size() == 1)
      wheel_.arm(conn.id * 2 + 1, now + options_.request_timeout_ms);
  }
}

void LineServer::retry_parked() {
  for (auto& [id, conn] : conns_) {
    while (!conn.parked.empty()) {
      Parked& head = conn.parked.front();
      if (!try_submit(id, head.serial, head.job))
        break;  // queue still full; a later completion retries
      conn.parked.pop_front();
      --parked_total_;
    }
    if (conn.parked.empty() && !conn.inbuf.empty()) parse_lines(conn);
  }
}

void LineServer::drain_completions() {
  std::deque<Done> ready;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    ready.swap(done_);
  }
  for (Done& d : ready) {
    auto it = conns_.find(d.conn_id);
    if (it == conns_.end()) continue;  // connection died before the answer
    for (Slot& slot : it->second.slots) {
      if (slot.serial == d.serial) {
        slot.text = service::response_from_result(d.result).dump();
        slot.done = true;
        break;
      }
    }
  }
  retry_parked();  // completions freed compile-queue slots
  // Flush (and possibly close) every connection; iterate over ids because
  // close_conn invalidates conns_ iterators.
  std::vector<std::uint64_t> ids;
  ids.reserve(conns_.size());
  for (auto& [id, conn] : conns_) ids.push_back(id);
  for (std::uint64_t id : ids) {
    auto it = conns_.find(id);
    if (it != conns_.end()) flush_ready(it->second);
  }
}

void LineServer::flush_ready(Conn& conn) {
  bool popped = false;
  for (;;) {
    if (conn.slots.empty()) break;
    Slot& front = conn.slots.front();
    if (!front.done && front.control) {
      // Control command at the front of the pipeline: evaluate it now, with
      // every preceding job already answered.
      const Json& request = *front.control;
      if (request["cmd"].as_string() == "shard") {
        front.text =
            shard_response(request, options_.shard,
                           service_.registry().options().retarget)
                .dump();
      } else {
        front.text = service::handle_introspection(request, service_)
                         .value_or(Json::object())
                         .dump();
      }
      front.done = true;
      front.control.reset();
    }
    if (!front.done) break;
    conn.outbuf += front.text;
    conn.outbuf.push_back('\n');
    net_counters().responses.add(1);
    conn.slots.pop_front();
    popped = true;
  }
  // The popped slots make room under pipeline_limit for lines it held
  // back. No completion may be left to come (the slots answered without a
  // job, or this was the last one), and parsing here could re-enter a
  // caller's parse (a shed flushes its victim), so wake the loop: its
  // retry_parked parses them.
  if (popped && conn.parked.empty() &&
      conn.inbuf.find('\n') != std::string::npos) {
    std::uint64_t one = 1;
    (void)!::write(wake_fd_, &one, sizeof one);
  }
  handle_writable(conn);
}

void LineServer::handle_writable(Conn& conn) {
  std::uint64_t id = conn.id;
  // Injected socket failure: the peer is treated as gone, exactly like a
  // real EPIPE below — this connection drops, the process keeps serving.
  if (conn.outpos < conn.outbuf.size() && util::failpoint("net.conn.write")) {
    close_conn(id);
    return;
  }
  while (conn.outpos < conn.outbuf.size()) {
    ssize_t n = ::send(conn.fd, conn.outbuf.data() + conn.outpos,
                       conn.outbuf.size() - conn.outpos, MSG_NOSIGNAL);
    if (n > 0) {
      net_counters().write_bytes.add(static_cast<std::uint64_t>(n));
      conn.outpos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // Peer gone (EPIPE/ECONNRESET under MSG_NOSIGNAL): drop exactly this
    // connection, never the process.
    close_conn(id);
    return;
  }
  if (conn.outpos == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.outpos = 0;
  }
  // Complete lines still buffered (held back by the pipeline limit) are
  // answered before a half-closed connection closes.
  if (conn.eof && conn.slots.empty() && conn.parked.empty() &&
      conn.outbuf.empty() && conn.inbuf.find('\n') == std::string::npos) {
    close_conn(id);
    return;
  }
  update_interest(conn);
}

void LineServer::update_interest(Conn& conn) {
  std::uint32_t want = 0;
  bool writebuf_full = conn.outbuf.size() - conn.outpos >
                       options_.max_write_buffer;
  bool paused = conn.eof || !conn.parked.empty() || writebuf_full ||
                conn.slots.size() >= pipeline_limit();
  if (!paused) want |= EPOLLIN;
  if (conn.outpos < conn.outbuf.size()) want |= EPOLLOUT;
  if (want == conn.events) return;
  if (writebuf_full && (conn.events & EPOLLIN))
    net_counters().backpressure_stalls.add(1);
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.events = want;
}

void LineServer::close_conn(std::uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  wheel_.cancel(conn_id * 2);
  wheel_.cancel(conn_id * 2 + 1);
  parked_total_ -= it->second.parked.size();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  ::close(it->second.fd);
  conns_.erase(it);
  net_counters().closed.add(1);
  net_counters().connections.add(-1);
}

}  // namespace record::net
