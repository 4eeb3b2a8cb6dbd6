#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

/// \file admin_http.h
/// \brief Dependency-free HTTP/1.1 admin listener for the observability
/// plane: /metrics, /healthz, /shards, /tenants/<id>, /traces,
/// /debug/flightrecord. One blocking accept thread (poll() with a short
/// timeout so Stop() is prompt) feeds a BOUNDED connection queue drained
/// by a small handler pool — the same reject-don't-block admission idiom
/// as ingest admission: when the queue is full the listener writes a
/// canned 503 and closes instead of queueing unboundedly, so a curl storm
/// can never pile threads onto the data plane. Handlers are read paths
/// over already-lock-cheap snapshots; concurrency is capped by the pool
/// size.
///
/// Deliberately minimal: GET only (405 otherwise), Connection: close, no
/// keep-alive, no TLS, binds loopback. This is an operator port, not a
/// public API — the typed API stays the product surface.

namespace aims::obs {

/// \brief Listener knobs. Defaults favor "cheap and bounded".
struct AdminHttpConfig {
  /// TCP port on 127.0.0.1. 0 picks an ephemeral port (read it back from
  /// port() after Start()).
  int port = 0;
  /// Handler pool size == max in-flight requests.
  int handler_threads = 2;
  /// Accepted connections waiting for a handler; beyond this the listener
  /// answers 503 immediately.
  size_t max_pending = 16;
  /// Per-connection socket send/receive timeout. A stuck client costs one
  /// handler for at most this long.
  double io_timeout_ms = 2000.0;
  /// Request-head size cap; larger requests get 431 and a close.
  size_t max_request_bytes = 8192;
  /// Total wall-clock budget for reading one request head. The per-recv
  /// socket timeout alone does not stop a slowloris client that trickles
  /// one byte per almost-timeout; this deadline bounds the WHOLE read, so
  /// a slow client costs a handler at most this long before the server
  /// closes (no response) and counts it in slow_clients(). 0 disables.
  double read_deadline_ms = 5000.0;
  /// Request-line size cap (method + target + version). A target longer
  /// than this gets 414 and a close — keeps a hostile query string from
  /// consuming the whole head budget.
  size_t max_request_line_bytes = 2048;
};

/// \brief Parsed request head, as much of it as the admin plane needs.
struct AdminRequest {
  std::string method;  ///< "GET", uppercased as received.
  std::string path;    ///< Path without the query string, e.g. "/metrics".
  std::string query;   ///< Raw query string without the '?', may be empty.
};

/// \brief What a route handler returns; the server adds the envelope
/// (status line, Content-Length, Connection: close).
struct AdminResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
};

/// \brief Bounded-admission HTTP listener with exact and prefix routes.
///
/// Thread-safe: register routes before Start(); Start/Stop from a control
/// thread; handlers run on pool threads and must be thread-safe
/// themselves.
class AdminHttpServer {
 public:
  using Handler = std::function<AdminResponse(const AdminRequest&)>;

  explicit AdminHttpServer(AdminHttpConfig config = {});
  ~AdminHttpServer();

  AdminHttpServer(const AdminHttpServer&) = delete;
  AdminHttpServer& operator=(const AdminHttpServer&) = delete;

  /// \brief Exact-path route ("/metrics"). Last registration wins.
  void Route(std::string path, Handler handler);
  /// \brief Prefix route ("/tenants/"): matches any path starting with the
  /// prefix; the handler sees the full path and parses the suffix. The
  /// longest matching prefix wins; exact routes win over prefixes.
  void RoutePrefix(std::string prefix, Handler handler);

  /// \brief Binds 127.0.0.1:<port>, listens, spawns the accept thread and
  /// handler pool. FailedPrecondition while already running.
  Status Start();
  /// \brief Stops accepting, drains nothing (pending queued connections
  /// get a 503-equivalent close), joins all threads. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// Bound port (resolves ephemeral 0), or -1 before Start().
  int port() const { return port_.load(std::memory_order_acquire); }

  /// Requests fully served (any status from a handler).
  uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Connections rejected at admission (queue full → canned 503).
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// Connections closed for blowing the read deadline (slowloris-style
  /// trickle) or an oversized request line/head.
  uint64_t slow_clients() const {
    return slow_clients_.load(std::memory_order_relaxed);
  }

  const AdminHttpConfig& config() const { return config_; }

 private:
  void AcceptLoop();
  void HandlerLoop();
  void ServeConnection(int fd);
  /// Reads the request head (bounded, with timeout); false on a socket
  /// error/timeout/oversize (response already written when appropriate).
  bool ReadRequestHead(int fd, std::string* head);
  const Handler* Resolve(const std::string& path) const;
  static void WriteAll(int fd, const char* data, size_t size);
  static void WriteResponse(int fd, const AdminResponse& response);

  AdminHttpConfig config_;

  /// Routing tables are written before Start() and read-only afterwards.
  std::map<std::string, Handler> exact_routes_;
  std::vector<std::pair<std::string, Handler>> prefix_routes_;

  std::atomic<int> port_{-1};
  int listen_fd_ = -1;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<int> pending_;
  bool stop_requested_ = false;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> slow_clients_{0};

  /// Held across all of Start and Stop, the joins included; guards the
  /// threads and listen_fd_.
  std::mutex lifecycle_mutex_;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::vector<std::thread> handlers_;
};

/// \brief Percent-decodes a URL component ('+' -> space, %XX -> byte;
/// malformed escapes pass through literally). Exposed for tests.
std::string UrlDecode(const std::string& text);

/// \brief Splits a raw query string ("a=1&b=x%20y") into decoded key/value
/// pairs; a key without '=' maps to "". Later duplicates win. Exposed for
/// handlers (/api/v1/query_range) and tests.
std::map<std::string, std::string> ParseQueryParams(const std::string& query);

}  // namespace aims::obs
