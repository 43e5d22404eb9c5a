// Socket front end for the compile service: a single-threaded epoll event
// loop serving the JSON-lines protocol (the exact codec in service/wire.h,
// so responses are byte-identical to the stdio daemon) over TCP or a Unix
// socket.
//
//        accept ──► Conn{ inbuf ── parse line ──► response slot deque }
//                          │                            │
//                          │ try_submit_async           │ in-order flush
//                          ▼                            ▼
//                   CompileService                conn outbuf ──► send()
//
// Concurrency: the loop thread owns every Conn; worker threads only touch
// the completion queue (mutex + eventfd wakeup), so the loop never blocks
// on a job and the workers never block on a socket.
//
// Write path: a wakeup drains every queued completion, retries parked jobs
// and the lines a park or the pipeline limit held back, then flushes every
// connection. A flush appends every response ready at the front of the
// slot deque to outbuf and sends it in one send(); what the kernel does not
// take waits for EPOLLOUT. A flush that frees slots while complete lines
// wait behind the pipeline limit wakes the loop, which parses them. The batching happens here, so accepted TCP connections run
// with TCP_NODELAY: with Nagle on, the last reply of a drained batch would
// wait for the client's delayed ACK (40 ms or more on Linux).
//
// Ordering: each request reserves a response slot at parse time and slots
// flush strictly in order, so pipelined requests answer in request order.
// Control-plane commands ("cmd": stats / trace / explain / shard) are
// evaluated only when their slot reaches the front — the same semantics as
// the stdio printer thread: a stats response counts every job answered
// above it.
//
// Backpressure, both directions:
//  - compile queue full: try_submit_async fails, the job parks, and the
//    connection stops reading until a completion frees a slot;
//  - slow reader: a connection whose outbuf exceeds max_write_buffer (or
//    that has max_pipeline slots in flight) stops reading until the client
//    drains it. Either way the kernel socket buffer, not daemon memory,
//    absorbs the client's burst.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/shard.h"
#include "net/timerwheel.h"
#include "service/json.h"
#include "service/service.h"

namespace record::net {

class LineServer {
 public:
  struct Options {
    /// When set, listen on an AF_UNIX socket at this path (unlinked on
    /// stop); otherwise TCP on host:port.
    std::string unix_path;
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;  // 0 = ephemeral; port() reports the bound port

    /// A request line longer than this is unrecoverable (framing is lost):
    /// the connection gets one error response and is closed.
    std::size_t max_line = 1 << 20;
    /// Slow-reader watermark: stop reading from a connection whose unsent
    /// responses exceed this many bytes.
    std::size_t max_write_buffer = 4u << 20;
    /// In-flight response slots per connection; 0 = 512.
    std::size_t max_pipeline = 0;

    /// Daemon-wide default for "options.listing" (the --listing flag).
    bool default_listing = false;
    ShardConfig shard;

    /// Close a connection with no inbound traffic for this long; 0 = never
    /// (the stdio daemon's behaviour). Closes log one stderr line and count
    /// under "net.conn.idle_closed".
    std::uint64_t idle_timeout_ms = 0;
    /// Shed a parked request (compile queue full) still unsubmitted after
    /// this long; 0 = park indefinitely. Shed responses are structured
    /// failures carrying retry_after_ms.
    std::uint64_t request_timeout_ms = 0;
    /// Server-wide cap on parked requests: parking one more sheds the
    /// globally oldest parked request first (deterministic oldest-first
    /// load shedding). 0 = unbounded parking.
    std::size_t max_parked = 0;
    /// Deadline stamped on jobs whose request carries no
    /// "options.deadline_ms"; 0 = no default deadline.
    std::uint64_t default_deadline_ms = 0;
  };

  LineServer(service::CompileService& service, Options options);
  ~LineServer();  // stop()

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds, listens and spawns the loop thread. False (with `error` set)
  /// when the socket cannot be set up; the server is then inert.
  [[nodiscard]] bool start(std::string* error = nullptr);

  /// Closes the listener, completes jobs already submitted, closes every
  /// connection and joins the loop thread. Idempotent.
  void stop();

  /// Bound TCP port (after start(); 0 for Unix-socket servers).
  [[nodiscard]] std::uint16_t port() const { return bound_port_; }

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  struct Slot {
    std::uint64_t serial = 0;
    bool done = false;
    std::string text;  // response line (unterminated) once done
    /// Deferred control command; evaluated when the slot reaches the front.
    std::optional<service::Json> control;
  };

  struct Parked {
    std::uint64_t serial = 0;
    std::uint64_t seq = 0;          // global park order (monotonic)
    std::uint64_t parked_at_ms = 0;
    service::CompileJob job;
  };

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::uint32_t events = 0;  // current epoll interest set
    std::size_t lineno = 0;
    std::string inbuf;
    std::string outbuf;
    std::size_t outpos = 0;
    std::deque<Slot> slots;
    std::deque<Parked> parked;  // jobs waiting for compile-queue space
    std::uint64_t next_serial = 1;
    /// Peer stopped sending (EOF, error, or lost framing): no more reads,
    /// close once every pending response has flushed.
    bool eof = false;
    /// Last inbound traffic (steady-clock ms); drives the idle timeout.
    std::uint64_t last_activity_ms = 0;
  };

  struct Done {
    std::uint64_t conn_id = 0;
    std::uint64_t serial = 0;
    service::JobResult result;
  };

  void run();
  void handle_accept();
  void handle_readable(Conn& conn);
  void handle_writable(Conn& conn);
  void parse_lines(Conn& conn);
  /// Submits `job` without blocking, its completion answering slot
  /// `serial` of connection `conn_id`. False (and `job` untouched) when the
  /// compile queue is full.
  [[nodiscard]] bool try_submit(std::uint64_t conn_id, std::uint64_t serial,
                                service::CompileJob& job);
  void submit_or_park(Conn& conn, std::uint64_t serial,
                      service::CompileJob job);
  /// Resubmits parked jobs in order and parses lines a park or the
  /// pipeline limit held back.
  void retry_parked();
  void drain_completions();
  void flush_ready(Conn& conn);
  void update_interest(Conn& conn);
  void close_conn(std::uint64_t conn_id);
  [[nodiscard]] std::size_t pipeline_limit() const;

  /// Fires due idle/parked timers (timer id = conn_id*2 for idle,
  /// conn_id*2+1 for parked-request timeouts).
  void expire_timers(std::uint64_t now);
  /// Sheds conn.parked.front(): its reserved slot becomes a structured
  /// failure with retry_after_ms and "net.shed" counts it.
  void shed_parked(Conn& conn, const char* reason);
  /// Deterministic saturation shedding: drops the globally oldest parked
  /// request (smallest park seq). `skip_flush_id` is the connection the
  /// caller holds a reference into (it flushes that one itself).
  void shed_oldest_parked(std::uint64_t skip_flush_id);

  service::CompileService& service_;
  Options options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: completions and stop requests
  std::uint16_t bound_port_ = 0;
  std::thread loop_;
  bool started_ = false;

  std::unordered_map<std::uint64_t, Conn> conns_;
  std::uint64_t next_conn_id_ = 1;
  std::optional<ShardRing> ring_;  // set when sharding is enabled

  /// Loop-thread timer state: the wheel indexes idle and parked-request
  /// deadlines, park_seq_ orders parks globally for oldest-first shedding,
  /// parked_total_ is the server-wide parked count max_parked caps.
  TimerWheel wheel_;
  std::uint64_t park_seq_ = 0;
  std::size_t parked_total_ = 0;

  /// Worker-thread side: completed jobs waiting for the loop, the count of
  /// callbacks still outstanding (stop() waits for them so a worker never
  /// touches a destroyed server), and the stop flag the loop polls.
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  std::deque<Done> done_;
  std::size_t outstanding_ = 0;
  bool stopping_ = false;
};

}  // namespace record::net
