// The admin HTTP plane: the dependency-free loopback listener itself
// (routing, parse errors, bounded admission, slowloris/oversize defenses)
// and its wiring into AimsServer (/metrics, /healthz with the 200 -> 503
// saturation flip, /shards, /tenants, /traces, /debug/flightrecord,
// /api/v1/query_range over the metrics history). The client side here is
// a minimal raw-socket GET — the same wire a curl smoke test speaks.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/admin_http.h"
#include "server/server.h"

namespace aims {
namespace {

using obs::AdminHttpConfig;
using obs::AdminHttpServer;
using obs::AdminRequest;
using obs::AdminResponse;
using obs::ParseQueryParams;
using obs::UrlDecode;

struct HttpReply {
  int status = -1;  ///< -1: connect/read failed entirely.
  std::string head;
  std::string body;
};

/// One blocking HTTP/1.1 GET against 127.0.0.1:port. Reads to EOF — the
/// admin plane always answers Connection: close.
HttpReply Get(int port, const std::string& target,
              const std::string& method = "GET") {
  HttpReply reply;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  const std::string request =
      method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string raw;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    raw.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  if (raw.rfind("HTTP/1.1 ", 0) != 0 || raw.size() < 12) return reply;
  reply.status = std::atoi(raw.substr(9, 3).c_str());
  size_t split = raw.find("\r\n\r\n");
  reply.head = raw.substr(0, split == std::string::npos ? raw.size() : split);
  if (split != std::string::npos) reply.body = raw.substr(split + 4);
  return reply;
}

TEST(AdminHttpServerTest, RoutesParseErrorsAndEphemeralPort) {
  AdminHttpServer server{AdminHttpConfig{}};  // port 0: ephemeral
  server.Route("/ping", [](const AdminRequest& request) {
    AdminResponse response;
    response.body = "{\"path\":\"" + request.path + "\",\"query\":\"" +
                    request.query + "\"}\n";
    return response;
  });
  server.RoutePrefix("/items/", [](const AdminRequest& request) {
    AdminResponse response;
    response.body = "prefix:" + request.path;
    return response;
  });
  EXPECT_EQ(server.port(), -1) << "no port before Start()";
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0) << "ephemeral port resolved";
  EXPECT_TRUE(server.running());

  // Exact route, with the query split off the path.
  HttpReply ping = Get(server.port(), "/ping?x=1");
  EXPECT_EQ(ping.status, 200);
  EXPECT_NE(ping.body.find("\"path\":\"/ping\""), std::string::npos);
  EXPECT_NE(ping.body.find("\"query\":\"x=1\""), std::string::npos);
  EXPECT_NE(ping.head.find("Connection: close"), std::string::npos);

  // Prefix route sees the full path; unknown path 404; non-GET 405.
  EXPECT_EQ(Get(server.port(), "/items/42").body, "prefix:/items/42");
  EXPECT_EQ(Get(server.port(), "/nope").status, 404);
  EXPECT_EQ(Get(server.port(), "/ping", "POST").status, 405);
  EXPECT_GE(server.requests(), 4u);

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

TEST(AdminHttpServerTest, StartRacingStopWaitsForTheOldThreads) {
  // A Start issued the moment running() reads false during a Stop must
  // wait until that Stop has joined the old accept and handler threads and
  // closed their socket. Otherwise it clears the stop flag under them and
  // replaces the socket that Stop closes, and the Stop blocks until some
  // later Stop.
  AdminHttpServer server{AdminHttpConfig{}};
  server.Route("/ping", [](const AdminRequest&) {
    AdminResponse response;
    response.body = "pong";
    return response;
  });
  for (int trial = 0; trial < 10; ++trial) {
    ASSERT_TRUE(server.Start().ok());
    std::promise<void> stopped;
    std::future<void> stop_done = stopped.get_future();
    std::thread stopper([&] {
      server.Stop();
      stopped.set_value();
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (server.running() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    const Status restarted = server.Start();
    const bool stop_returned = stop_done.wait_for(std::chrono::seconds(5)) ==
                               std::future_status::ready;
    // A second Stop releases a blocked one, so a failure ends the trial
    // instead of hanging the test.
    if (!stop_returned) server.Stop();
    stopper.join();
    ASSERT_TRUE(stop_returned)
        << "Stop() blocked behind a racing Start() in trial " << trial;
    ASSERT_TRUE(restarted.ok()) << restarted.ToString();
    EXPECT_TRUE(server.running());
    EXPECT_EQ(Get(server.port(), "/ping").body, "pong");
    server.Stop();
    EXPECT_FALSE(server.running());
  }
}

TEST(AdminHttpServerTest, OverloadAnswersCanned503InsteadOfQueueing) {
  AdminHttpConfig config;
  config.handler_threads = 1;
  config.max_pending = 2;
  AdminHttpServer server(config);
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  server.Route("/block", [&](const AdminRequest&) {
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
    AdminResponse response;
    response.body = "{}\n";
    return response;
  });
  ASSERT_TRUE(server.Start().ok());

  // One handler wedged + two queued: every further connection must get the
  // canned 503 immediately instead of queueing behind the data... plane.
  std::atomic<int> served{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&] {
      HttpReply reply = Get(server.port(), "/block");
      if (reply.status == 200) served.fetch_add(1);
      if (reply.status == 503) rejected.fetch_add(1);
    });
  }
  // The rejects arrive while the gate is still closed — that is the point.
  for (int i = 0; i < 1000 && server.rejected() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GE(server.rejected(), 1u);
  {
    std::lock_guard<std::mutex> lock(gate_mutex);
    gate_open = true;
  }
  gate_cv.notify_all();
  for (std::thread& t : clients) t.join();
  EXPECT_GE(rejected.load(), 1);
  EXPECT_GE(served.load(), 1) << "admitted connections still complete";
  EXPECT_EQ(served.load() + rejected.load(), 8);
  server.Stop();
}

// Connects and sends \p raw verbatim (no trailing CRLFCRLF added), then
// reads to EOF. Lets tests speak broken HTTP.
HttpReply SendRaw(int port, const std::string& raw) {
  HttpReply reply;
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return reply;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return reply;
  }
  (void)::send(fd, raw.data(), raw.size(), MSG_NOSIGNAL);
  std::string got;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    got.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  if (got.rfind("HTTP/1.1 ", 0) == 0 && got.size() >= 12) {
    reply.status = std::atoi(got.substr(9, 3).c_str());
  }
  reply.body = got;
  return reply;
}

TEST(AdminHttpServerTest, MalformedRequestLineIs400) {
  AdminHttpServer server{AdminHttpConfig{}};
  ASSERT_TRUE(server.Start().ok());
  HttpReply reply = SendRaw(server.port(), "NONSENSE\r\n\r\n");
  EXPECT_EQ(reply.status, 400);
  EXPECT_NE(reply.body.find("malformed request line"), std::string::npos);
  server.Stop();
}

TEST(AdminHttpServerTest, OversizedHeadIs431AndCounted) {
  AdminHttpConfig config;
  config.max_request_bytes = 512;
  AdminHttpServer server(config);
  ASSERT_TRUE(server.Start().ok());
  // A valid short request line followed by an endless header: the head cap
  // must cut it off with 431 before the full 8k default would.
  std::string raw = "GET /ping HTTP/1.1\r\nX-Filler: ";
  raw.append(2048, 'a');
  HttpReply reply = SendRaw(server.port(), raw);
  EXPECT_EQ(reply.status, 431);
  EXPECT_GE(server.slow_clients(), 1u);
  server.Stop();
}

TEST(AdminHttpServerTest, OversizedRequestLineIs414) {
  AdminHttpConfig config;
  config.max_request_line_bytes = 256;
  AdminHttpServer server(config);
  ASSERT_TRUE(server.Start().ok());
  // A hostile query string that never finishes its first line.
  std::string raw = "GET /metrics?junk=";
  raw.append(1024, 'x');
  HttpReply reply = SendRaw(server.port(), raw);
  EXPECT_EQ(reply.status, 414);
  EXPECT_GE(server.slow_clients(), 1u);
  server.Stop();
}

TEST(AdminHttpServerTest, SlowlorisClientIsClosedAtTheDeadlineWithNoReply) {
  AdminHttpConfig config;
  config.read_deadline_ms = 200.0;
  config.io_timeout_ms = 5000.0;  // per-recv timeout alone would NOT save us
  AdminHttpServer server(config);
  server.Route("/ping", [](const AdminRequest&) { return AdminResponse{}; });
  ASSERT_TRUE(server.Start().ok());

  // Trickle one byte every 40ms — each arrival resets a naive per-recv
  // timeout, so only the total wall-clock deadline can end this.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const auto start = std::chrono::steady_clock::now();
  const std::string request = "GET /ping HTTP/1.1\r\n";
  std::string got;
  for (size_t i = 0; i < request.size(); ++i) {
    if (::send(fd, &request[i], 1, MSG_NOSIGNAL) <= 0) break;  // server closed
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    char buffer[256];
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n == 0) break;  // orderly close observed
    if (n > 0) got.append(buffer, static_cast<size_t>(n));
  }
  // Drain whatever remains until EOF (bounded by the socket close).
  char buffer[256];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    got.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  EXPECT_TRUE(got.empty()) << "a slow client earns a close, not a response";
  EXPECT_LT(elapsed_ms, 2000.0) << "closed at ~the 200ms deadline, not the "
                                   "5s io timeout";
  EXPECT_GE(server.slow_clients(), 1u);

  // The server is still fully alive for honest clients.
  EXPECT_EQ(Get(server.port(), "/ping").status, 200);
  server.Stop();
}

TEST(UrlCodecTest, DecodeAndQueryParams) {
  EXPECT_EQ(UrlDecode("a%20b+c"), "a b c");
  EXPECT_EQ(UrlDecode("rate%28x%29"), "rate(x)");
  EXPECT_EQ(UrlDecode("100%"), "100%") << "malformed escape passes through";
  EXPECT_EQ(UrlDecode("%zz"), "%zz");
  EXPECT_EQ(UrlDecode(""), "");

  auto params = ParseQueryParams("query=rate%28a.b%29&start=1&flag&start=2");
  EXPECT_EQ(params.at("query"), "rate(a.b)");
  EXPECT_EQ(params.at("start"), "2") << "later duplicates win";
  EXPECT_EQ(params.at("flag"), "");
  EXPECT_TRUE(ParseQueryParams("").empty());
}

// ---- The wired server endpoints -------------------------------------------

server::ServerConfig AdminServerConfig() {
  server::ServerConfig config;
  config.num_shards = 2;
  config.num_threads = 2;
  config.obs.admin_port = 0;  // ephemeral
  return config;
}

TEST(AdminEndpointsTest, MetricsHealthzShardsTenantsTracesAndFlightRecord) {
  server::ServerConfig config = AdminServerConfig();
  config.obs.reporter.saturation_capacity = 4.0;
  server::AimsServer server(config);
  ASSERT_TRUE(server.admin_status().ok());
  ASSERT_NE(server.admin_http(), nullptr);
  const int port = server.admin_http()->port();
  ASSERT_GT(port, 0);

  // Generate a little attributed work so the surfaces are non-trivial.
  ASSERT_TRUE(server.OpenSession({7}).ok());

  // /metrics: valid exposition with the identity prologue and families
  // from the extended exporter.
  HttpReply metrics = Get(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.head.find("text/plain"), std::string::npos);
  EXPECT_EQ(metrics.body.rfind("# TYPE aims_build_info gauge", 0), 0u);
  EXPECT_NE(metrics.body.find("aims_uptime_seconds "), std::string::npos);
  EXPECT_NE(metrics.body.find("aims_shard_sessions{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("aims_tracer_traces_recorded_total"),
            std::string::npos);

  // /healthz: 200 while healthy...
  HttpReply healthy = Get(port, "/healthz");
  EXPECT_EQ(healthy.status, 200);
  EXPECT_NE(healthy.body.find("\"level\":\"Ok\""), std::string::npos);

  // ...and 503 the moment the watched queue saturates (the load-balancer
  // flip the ISSUE's acceptance demands).
  server.metrics().GetGauge("ingest.queue_depth")->Set(5);  // > capacity 4
  HttpReply saturated = Get(port, "/healthz?refresh=1");
  EXPECT_EQ(saturated.status, 503);
  EXPECT_NE(saturated.body.find("\"level\":\"Saturated\""),
            std::string::npos);
  server.metrics().GetGauge("ingest.queue_depth")->Set(0);
  EXPECT_EQ(Get(port, "/healthz?refresh=1").status, 200);

  // /shards: every shard present, with the routing epoch.
  HttpReply shards = Get(port, "/shards");
  EXPECT_EQ(shards.status, 200);
  EXPECT_NE(shards.body.find("\"router_epoch\":"), std::string::npos);
  EXPECT_NE(shards.body.find("\"shard\":0"), std::string::npos);
  EXPECT_NE(shards.body.find("\"shard\":1"), std::string::npos);

  // /tenants: the ledger surface; a specific uncharged tenant is 404 and
  // a malformed id is 400.
  HttpReply tenants = Get(port, "/tenants");
  EXPECT_EQ(tenants.status, 200);
  EXPECT_NE(tenants.body.find("\"total\":"), std::string::npos);
  EXPECT_EQ(Get(port, "/tenants/999999").status, 404);
  EXPECT_EQ(Get(port, "/tenants/notanumber").status, 400);

  // /traces: Chrome trace JSON, loadable as-is.
  HttpReply traces = Get(port, "/traces");
  EXPECT_EQ(traces.status, 200);
  EXPECT_NE(traces.body.find("\"traceEvents\""), std::string::npos);

  // /debug/flightrecord: the black box rendered on demand.
  HttpReply flight = Get(port, "/debug/flightrecord");
  EXPECT_EQ(flight.status, 200);
  EXPECT_NE(flight.body.find("\"bundle\":\"aims_flightrecord\""),
            std::string::npos);

  server.Shutdown();
}

TEST(AdminEndpointsTest, DisabledSubsystemsDegradeCleanly) {
  server::ServerConfig config = AdminServerConfig();
  config.obs.enable_tracing = false;
  server::AimsServer server(config);
  ASSERT_TRUE(server.admin_status().ok());
  const int port = server.admin_http()->port();

  EXPECT_EQ(Get(port, "/metrics").status, 200);
  EXPECT_EQ(Get(port, "/traces").status, 404);
}

TEST(AdminEndpointsTest, QueryRangeServesPrometheusMatrixOverHistory) {
  server::ServerConfig config = AdminServerConfig();
  server::AimsServer server(config);
  ASSERT_TRUE(server.admin_status().ok());
  const int port = server.admin_http()->port();
  ASSERT_NE(server.metrics_scraper(), nullptr);

  // Deterministic history: 60 scrapes at 1s cadence ending near now.
  const int64_t now_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  const int64_t t0 = now_ms - 60 * 1000;
  obs::Counter* ticks = server.metrics().GetCounter("qr.ticks");
  for (int i = 0; i < 60; ++i) {
    ticks->Increment(2);
    server.metrics_scraper()->ScrapeOnce(t0 + i * 1000);
  }

  const std::string window = "&start=" + std::to_string(t0 / 1000 + 10) +
                             "&end=" + std::to_string(t0 / 1000 + 59) +
                             "&step=10";
  // Bare series: avg per window, Prometheus matrix shape.
  HttpReply bare = Get(port, "/api/v1/query_range?query=qr.ticks" + window);
  EXPECT_EQ(bare.status, 200);
  EXPECT_NE(bare.body.find("\"status\":\"success\""), std::string::npos);
  EXPECT_NE(bare.body.find("\"resultType\":\"matrix\""), std::string::npos);
  EXPECT_NE(bare.body.find("\"__name__\":\"qr.ticks\""), std::string::npos);
  EXPECT_NE(bare.body.find("\"values\":[["), std::string::npos);

  // func(series) form, URL-encoded parens, rate() over the counter.
  HttpReply rate = Get(port, "/api/v1/query_range?query=rate%28qr.ticks%29" +
                                 window);
  EXPECT_EQ(rate.status, 200);
  EXPECT_NE(rate.body.find("\"values\":[["), std::string::npos);
  // 2/tick at 1s cadence: every window's rate is 2 (TrimmedDouble "2").
  EXPECT_NE(rate.body.find(",\"2\"]"), std::string::npos) << rate.body;

  // An unknown series is an empty matrix, not an error.
  HttpReply unknown =
      Get(port, "/api/v1/query_range?query=never.scraped" + window);
  EXPECT_EQ(unknown.status, 200);
  EXPECT_NE(unknown.body.find("\"result\":[]"), std::string::npos);

  // Error paths: missing params, unknown func, bad step.
  EXPECT_EQ(Get(port, "/api/v1/query_range").status, 400);
  EXPECT_EQ(Get(port, "/api/v1/query_range?query=x").status, 400);
  EXPECT_EQ(
      Get(port, "/api/v1/query_range?query=bogus%28x%29" + window).status,
      400);
  EXPECT_EQ(Get(port, "/api/v1/query_range?query=x&start=1&end=2&step=0")
                .status,
            400);
  EXPECT_EQ(Get(port, "/api/v1/query_range?query=x&start=nan-sense&end=2")
                .status,
            400);
  // Abusive ranges are rejected up front, not evaluated window by window:
  // a caller-controlled start/end/step must not pin a handler thread.
  EXPECT_EQ(Get(port, "/api/v1/query_range?query=x"
                      "&start=0&end=9e15&step=0.001")
                .status,
            400)
      << "~1e19 windows must be a 400, not an eternal loop";
  // A unix-ms timestamp passed where seconds are expected (an honest
  // mixup) exceeds the timestamp bound and fails fast too.
  EXPECT_EQ(Get(port, "/api/v1/query_range?query=x&start=0"
                      "&end=" + std::to_string(now_ms) + "000&step=1")
                .status,
            400);
  // Magnitudes past the int64-safe bound are a 400, never UB in the cast.
  EXPECT_EQ(Get(port, "/api/v1/query_range?query=x"
                      "&start=-1e300&end=2&step=1")
                .status,
            400);
  EXPECT_EQ(Get(port, "/api/v1/query_range?query=x"
                      "&start=1&end=1e300&step=1")
                .status,
            400);
  server.Shutdown();
}

TEST(AdminEndpointsTest, QuantileMustBeAFiniteNumberInTheUnitInterval) {
  server::AimsServer server(AdminServerConfig());
  ASSERT_TRUE(server.admin_status().ok());
  const int port = server.admin_http()->port();
  const int64_t t0 = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count() /
                     1000 * 1000 - 20 * 1000;
  obs::Gauge* level = server.metrics().GetGauge("qr.level");
  for (int i = 0; i < 10; ++i) {
    level->Set(i);
    server.metrics_scraper()->ScrapeOnce(t0 + i * 1000);
  }

  server::QueryMetricsHistoryRequest typed;
  typed.series = "qr.level";
  typed.func = obs::RangeFunc::kQuantile;
  typed.start_ms = t0 + 9000;
  typed.end_ms = t0 + 9000;
  typed.step_ms = 10000;
  for (double bad : {std::nan(""), -0.1, 1.5}) {
    typed.quantile = bad;
    EXPECT_EQ(server.QueryMetricsHistory(typed).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  for (double edge : {0.0, 1.0}) {
    typed.quantile = edge;
    auto answered = server.QueryMetricsHistory(typed);
    ASSERT_TRUE(answered.ok()) << edge;
    ASSERT_EQ(answered->points.size(), 1u);
    EXPECT_EQ(answered->points[0].value, edge == 0.0 ? 0.0 : 9.0);
  }

  const std::string query =
      "/api/v1/query_range?query=quantile_over_time%28qr.level%29"
      "&start=" + std::to_string(t0 / 1000 + 9) +
      "&end=" + std::to_string(t0 / 1000 + 9) + "&step=10&quantile=";
  for (const char* bad : {"nan", "abc", "1.5", "0.5x", ""}) {
    EXPECT_EQ(Get(port, query + bad).status, 400) << bad;
  }
  for (const char* edge : {"0", "1"}) {
    HttpReply reply = Get(port, query + edge);
    EXPECT_EQ(reply.status, 200) << edge;
    EXPECT_NE(reply.body.find("\"values\":[["), std::string::npos) << edge;
  }
  server.Shutdown();
}

TEST(AdminEndpointsTest, QueryRangeIs404WhenHistoryDisabled) {
  server::ServerConfig config = AdminServerConfig();
  config.obs.enable_metrics_history = false;
  server::AimsServer server(config);
  ASSERT_TRUE(server.admin_status().ok());
  HttpReply reply = Get(server.admin_http()->port(),
                        "/api/v1/query_range?query=x&start=1&end=2");
  EXPECT_EQ(reply.status, 404);
  EXPECT_NE(reply.body.find("metrics history disabled"), std::string::npos);
  server.Shutdown();
}

TEST(AdminEndpointsTest, AdminDisabledByDefaultAndTypedDumpWorks) {
  server::ServerConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  server::AimsServer server(config);
  EXPECT_EQ(server.admin_http(), nullptr) << "admin_port defaults to off";
  EXPECT_TRUE(server.admin_status().ok());

  // The typed dump renders in-memory (no durable dir: no bundle path).
  auto dumped = server.DumpFlightRecord({"typed-api test", true});
  ASSERT_TRUE(dumped.ok());
  EXPECT_TRUE(dumped->path.empty());
  EXPECT_NE(dumped->bundle_json.find("\"bundle\":\"aims_flightrecord\""),
            std::string::npos);
  EXPECT_NE(dumped->bundle_json.find("typed-api test"), std::string::npos);
}

// ---- Span stage histograms ------------------------------------------------

/// How many spans of each stage the tracer's retained traces hold.
using StageCounts = std::array<uint64_t, obs::kNumStages>;

StageCounts RetainedSpanCounts(server::AimsServer& server) {
  StageCounts counts{};
  for (const obs::Trace& trace : server.tracer().Snapshot()) {
    for (const obs::TraceSpan& span : trace.spans()) {
      ++counts[static_cast<size_t>(span.stage)];
    }
  }
  return counts;
}

/// The observation count of every "span.<stage>_ms" histogram; a stage
/// whose histogram is not registered reads UINT64_MAX.
StageCounts HistogramCounts(server::AimsServer& server) {
  StageCounts counts;
  counts.fill(UINT64_MAX);
  for (const auto& [name, hist] : server.metrics().Histograms()) {
    for (size_t i = 0; i < obs::kNumStages; ++i) {
      if (name == "span." + std::string(obs::kStageNames[i]) + "_ms") {
        counts[i] = hist->count();
      }
    }
  }
  return counts;
}

size_t StageIndex(obs::Stage stage) { return static_cast<size_t>(stage); }

constexpr size_t kStageIngests = 3;
constexpr size_t kStageQueries = 4;
constexpr size_t kStageBatches = 2;
constexpr size_t kStageFramesPerBatch = 6;
constexpr size_t kStageChannels = 2;

/// A server with the admin plane on, on the in-memory backend or on a
/// durable store under a fresh directory that checkpoints every few
/// ingests.
server::ServerConfig StageServerConfig(bool durable, bool tracing,
                                       const std::string& tag) {
  server::ServerConfig config = AdminServerConfig();
  config.obs.enable_tracing = tracing;
  if (durable) {
    const std::string dir = ::testing::TempDir() + "/aims_span_stages_" + tag;
    std::filesystem::remove_all(dir);
    config.system.durability.path = dir;
    config.system.durability.checkpoint_wal_bytes = 4096;
  }
  return config;
}

/// N ingests, M queries (the first with EXPLAIN ANALYZE) and K stream
/// batches, one after another, so every run of it records the same spans.
void RunStageWorkload(server::AimsServer& server) {
  linalg::Matrix segment(8, kStageChannels);
  for (size_t r = 0; r < 8; ++r) {
    segment.SetRow(r, {static_cast<double>(r), 1.0});
  }
  ASSERT_TRUE(server.AddVocabularyEntry("wave", segment).ok());
  ASSERT_TRUE(server.OpenSession({1, /*enable_recognition=*/true}).ok());
  std::vector<server::GlobalSessionId> sessions;
  for (size_t i = 0; i < kStageIngests; ++i) {
    streams::Recording rec;
    rec.sample_rate_hz = 100.0;
    for (size_t f = 0; f < 256; ++f) {
      streams::Frame frame;
      frame.timestamp = static_cast<double>(f) / 100.0;
      frame.values = {std::sin(0.1 * static_cast<double>(f + i)),
                      std::cos(0.05 * static_cast<double>(f))};
      rec.Append(std::move(frame));
    }
    auto ingested = server.IngestRecording(
        {1, "rec" + std::to_string(i), std::move(rec)});
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    sessions.push_back(ingested->session);
  }
  for (size_t q = 0; q < kStageQueries; ++q) {
    server::QueryRequest query;
    query.session = sessions[q % sessions.size()];
    query.channel = q % kStageChannels;
    query.first_frame = 7 + q;
    query.last_frame = 246;
    if (q == 0) query.explain = server::ExplainMode::kAnalyze;
    auto submitted = server.SubmitQuery({1, query});
    ASSERT_TRUE(submitted.ok());
    ASSERT_EQ(submitted->ticket->Wait().state, server::QueryState::kComplete);
  }
  for (size_t b = 0; b < kStageBatches; ++b) {
    server::StreamSamplesRequest request;
    request.client = 1;
    for (size_t f = 0; f < kStageFramesPerBatch; ++f) {
      streams::Frame frame;
      frame.timestamp = static_cast<double>(f) / 100.0;
      frame.values = {12.0 * std::sin(0.3 * static_cast<double>(f)), 1.0};
      request.frames.push_back(std::move(frame));
    }
    ASSERT_TRUE(server.StreamSamples(std::move(request)).ok());
  }
}

class SpanStageMetricsTest : public ::testing::TestWithParam<bool> {
 protected:
  bool durable() const { return GetParam(); }
};

TEST_P(SpanStageMetricsTest, EveryRetainedSpanIsOneObservationOfItsStage) {
  server::AimsServer server(StageServerConfig(durable(), true, "on"));
  ASSERT_TRUE(server.admin_status().ok());
  RunStageWorkload(server);
  ASSERT_FALSE(HasFatalFailure());
  EXPECT_EQ(server.tracer().dropped(), 0u);

  const StageCounts spans = RetainedSpanCounts(server);
  const StageCounts observed = HistogramCounts(server);
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    EXPECT_EQ(observed[i], spans[i]) << obs::kStageNames[i];
  }
  // The workload reached every stage it drives.
  using obs::Stage;
  EXPECT_EQ(spans[StageIndex(Stage::kIngest)], kStageIngests);
  EXPECT_EQ(spans[StageIndex(Stage::kTransform)],
            kStageIngests * kStageChannels);
  EXPECT_EQ(spans[StageIndex(Stage::kQuery)], kStageQueries);
  EXPECT_EQ(spans[StageIndex(Stage::kAdmissionWait)], kStageQueries);
  EXPECT_EQ(spans[StageIndex(Stage::kRefinement)], kStageQueries);
  EXPECT_GT(spans[StageIndex(Stage::kBlockIo)], kStageQueries);
  EXPECT_EQ(spans[StageIndex(Stage::kStreamSamples)], kStageBatches);
  EXPECT_EQ(spans[StageIndex(Stage::kRecognizerUpdate)],
            kStageBatches * kStageFramesPerBatch);
  if (durable()) {
    EXPECT_EQ(spans[StageIndex(Stage::kWalSync)], kStageIngests);
    EXPECT_EQ(spans[StageIndex(Stage::kShardApplyLock)], kStageIngests);
    EXPECT_GT(spans[StageIndex(Stage::kCheckpoint)], 0u);
  }

  // /metrics exports them: one family per stage.
  const int port = server.admin_http()->port();
  HttpReply metrics = Get(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("\naims_span_ingest_ms_count " +
                              std::to_string(kStageIngests) + "\n"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("\naims_span_query_ms_count " +
                              std::to_string(kStageQueries) + "\n"),
            std::string::npos);
  EXPECT_EQ(Get(port, "/traces").status, 200);
  server.Shutdown();
}

TEST_P(SpanStageMetricsTest, CountsAdvanceWithTracingOff) {
  StageCounts traced;
  {
    server::AimsServer server(StageServerConfig(durable(), true, "ref"));
    RunStageWorkload(server);
    ASSERT_FALSE(HasFatalFailure());
    traced = HistogramCounts(server);
  }
  server::AimsServer server(StageServerConfig(durable(), false, "off"));
  ASSERT_TRUE(server.admin_status().ok());
  RunStageWorkload(server);
  ASSERT_FALSE(HasFatalFailure());

  // The same spans were observed, and none was retained.
  const StageCounts observed = HistogramCounts(server);
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    EXPECT_EQ(observed[i], traced[i]) << obs::kStageNames[i];
  }
  EXPECT_EQ(observed[StageIndex(obs::Stage::kQuery)], kStageQueries);
  EXPECT_TRUE(server.tracer().Snapshot().empty());
  EXPECT_EQ(server.tracer().total_recorded(), 0u);
  EXPECT_EQ(server.tracer().dropped(), 0u);

  const int port = server.admin_http()->port();
  EXPECT_EQ(Get(port, "/traces").status, 404);
  HttpReply metrics = Get(port, "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("aims_span_query_ms_count"), std::string::npos);
  EXPECT_EQ(metrics.body.find("aims_tracer_"), std::string::npos);
  server.Shutdown();
}

INSTANTIATE_TEST_SUITE_P(Backends, SpanStageMetricsTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Durable" : "InMemory";
                         });

// ---- Teardown with every background loop running ------------------------

/// Recording \p i of the teardown test: 2 channels, 64 frames, values
/// that differ per recording.
streams::Recording TeardownRecording(size_t i) {
  streams::Recording rec;
  rec.sample_rate_hz = 100.0;
  for (size_t f = 0; f < 64; ++f) {
    streams::Frame frame;
    frame.timestamp = static_cast<double>(f) / 100.0;
    const double x = static_cast<double>(f);
    frame.values = {std::sin(0.1 * x + static_cast<double>(i)),
                    (1.0 + static_cast<double>(i)) * std::cos(0.07 * x)};
    rec.Append(std::move(frame));
  }
  return rec;
}

TEST(ServerTeardownTest, ShutdownUnderLoadWithEveryLoopRunning) {
  // A hang anywhere fails the run instead of stalling it.
  std::promise<void> finished;
  std::thread deadline([done = finished.get_future()] {
    if (done.wait_for(std::chrono::seconds(120)) !=
        std::future_status::ready) {
      std::fprintf(stderr, "ServerTeardownTest: a round hung\n");
      std::abort();
    }
  });

  for (int round = 0; round < 10; ++round) {
    const std::string dir = ::testing::TempDir() + "/aims_teardown_" +
                            std::to_string(::getpid()) + "_" +
                            std::to_string(round);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    server::ServerConfig config = AdminServerConfig();
    config.system.durability.path = dir;
    config.obs.reporter_interval_ms = 1.0;
    config.obs.history_scrape_interval_ms = 1.0;
    config.obs.watchdog_interval_ms = 1.0;
    config.retention.interval_ms = 1.0;
    config.obs.flight_recorder.persist_interval_ms = 1.0;
    config.obs.slow_query_threshold_ms = 1e-6;
    config.obs.slow_query_log_path = dir + "/slow.jsonl";
    // Every ingest counts as bad, so the objective burns and each bundle
    // embeds its series.
    obs::SloObjective slo;
    slo.name = "ingest-burn";
    slo.kind = obs::SloKind::kErrorRatio;
    slo.objective = 0.9;
    slo.series = "catalog.ingest.count";
    slo.total_series = "catalog.ingest.count";
    slo.fast_window_ms = 5.0;
    slo.slow_window_ms = 20.0;
    slo.burn_threshold = 1.0;
    config.obs.slos = {slo};

    std::mutex acked_mutex;
    std::map<std::string, size_t> acked;  // name -> recording index
    {
      server::AimsServer server(config);
      ASSERT_TRUE(server.admin_status().ok());
      const int port = server.admin_http()->port();
      for (double scale : {1.0, -1.0}) {
        linalg::Matrix segment(8, 2);
        for (size_t r = 0; r < 8; ++r) {
          const double x = static_cast<double>(r);
          segment.SetRow(r, {scale * x, x * x});
        }
        ASSERT_TRUE(server
                        .AddVocabularyEntry(scale > 0 ? "rise" : "fall",
                                            std::move(segment))
                        .ok());
      }
      ASSERT_TRUE(server.OpenSession({1}).ok());
      ASSERT_TRUE(server.OpenSession({2}).ok());
      ASSERT_TRUE(server.OpenSession({3, /*enable_recognition=*/true}).ok());
      auto seeded = server.IngestRecording({2, "q0", TeardownRecording(0)});
      ASSERT_TRUE(seeded.ok()) << seeded.status().ToString();
      acked["q0"] = 0;

      std::atomic<bool> shut{false};
      // Calls each client has completed; Shutdown waits for one of each.
      std::array<std::atomic<int>, 4> done{};
      std::vector<std::thread> clients;
      clients.emplace_back([&] {  // ingests until Shutdown refuses them
        for (size_t i = 1;; ++i) {
          const std::string name = "r" + std::to_string(i);
          auto ingested =
              server.IngestRecording({1, name, TeardownRecording(i)});
          if (!ingested.ok()) {
            EXPECT_EQ(ingested.status().code(),
                      StatusCode::kFailedPrecondition)
                << ingested.status().ToString();
            return;
          }
          std::lock_guard<std::mutex> lock(acked_mutex);
          acked[name] = i;
          ++done[0];
        }
      });
      clients.emplace_back([&] {  // queries until the executor refuses them
        server::QueryRequest query;
        query.session = seeded->session;
        query.channel = 1;
        query.first_frame = 3;
        query.last_frame = 60;
        while (true) {
          auto submitted = server.SubmitQuery({2, query});
          if (!submitted.ok()) {
            EXPECT_EQ(submitted.status().code(),
                      StatusCode::kFailedPrecondition)
                << submitted.status().ToString();
            return;
          }
          (void)submitted->ticket->Wait();
          ++done[1];
        }
      });
      clients.emplace_back([&] {  // streams frames until Shutdown returns
        for (size_t batch = 0; !shut.load(); ++batch) {
          server::StreamSamplesRequest request;
          request.client = 3;
          for (size_t f = 0; f < 16; ++f) {
            const double x = static_cast<double>(batch * 16 + f);
            streams::Frame frame;
            frame.timestamp = x / 100.0;
            frame.values = {20.0 * std::sin(0.2 * x), std::cos(0.1 * x)};
            request.frames.push_back(std::move(frame));
          }
          auto streamed = server.StreamSamples(std::move(request));
          EXPECT_TRUE(streamed.ok()) << streamed.status().ToString();
          ++done[2];
        }
      });
      clients.emplace_back([&] {  // reads the admin plane while it lasts
        // 503 is also the listener's canned answer to a connection it
        // cannot admit; -1 is a connection it closed or refused.
        while (!shut.load()) {
          const int health = Get(port, "/healthz").status;
          EXPECT_TRUE(health == 200 || health == 503 || health == -1)
              << health;
          const int record = Get(port, "/debug/flightrecord").status;
          EXPECT_TRUE(record == 200 || record == 503 || record == -1)
              << record;
          ++done[3];
        }
      });

      while (std::any_of(done.begin(), done.end(),
                         [](const std::atomic<int>& n) { return n < 2; })) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      server.Shutdown();
      shut = true;
      for (std::thread& client : clients) client.join();
    }

    // The recorder's last bundle is the shutdown's.
    std::ifstream bundle(dir + "/flightrecord.json");
    const std::string json((std::istreambuf_iterator<char>(bundle)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(json.find("\"reason\":\"shutdown\""), std::string::npos)
        << "round " << round;

    // A fresh server on the directory holds every acknowledged ingest,
    // bit for bit.
    server::ServerConfig reopen;
    reopen.num_shards = config.num_shards;
    reopen.num_threads = 1;
    reopen.system.durability.path = dir;
    server::AimsServer reopened(reopen);
    std::map<std::string, server::GlobalSessionId> stored;
    for (const server::CatalogSessionEntry& entry :
         reopened.catalog().ListSessions()) {
      stored[entry.info.name] = entry.id;
    }
    for (const auto& [name, index] : acked) {
      auto found = stored.find(name);
      if (found == stored.end()) {
        ADD_FAILURE() << "round " << round << ": acknowledged " << name
                      << " lost";
        continue;
      }
      const streams::Recording expect = TeardownRecording(index);
      for (size_t c = 0; c < 2; ++c) {
        auto samples = reopened.catalog().ReadRawSamples(found->second, c);
        ASSERT_TRUE(samples.ok()) << samples.status().ToString();
        ASSERT_EQ(samples->size(), expect.num_frames()) << name;
        for (size_t f = 0; f < expect.num_frames(); ++f) {
          EXPECT_EQ((*samples)[f].t_ms,
                    std::llround(expect.frames[f].timestamp * 1e6));
          EXPECT_EQ(std::memcmp(&(*samples)[f].value,
                                &expect.frames[f].values[c], sizeof(double)),
                    0)
              << name << " channel " << c << " frame " << f;
        }
      }
    }
    reopened.Shutdown();
    std::filesystem::remove_all(dir);
  }

  finished.set_value();
  deadline.join();
}

}  // namespace
}  // namespace aims
