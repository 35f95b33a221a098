#pragma once
// Tiny single-threaded HTTP/1.1 server exposing live telemetry while a
// bench runs, the same exposition model Prometheus-style stacks scrape
// inference servers with:
//
//   GET /metrics     text/plain  — Prometheus text exposition of the registry
//   GET /healthz     application/json — status + per-channel health counts
//   GET <route>      whatever route() registered; the benches register
//                    /runrecord, /flamegraph, /slo and /quality with the
//                    renderers that also write their files. Any other path
//                    is a 404 listing the served paths.
//
// HEAD on any route answers with the same status line and headers a GET
// would produce (Content-Length included) and no body.
//
// /healthz folds the sampler's ChannelHealth gauges into per-state counts
// and degrades to 503 when every known channel is quarantined — the scrape
// contract a load balancer health check expects.
//
// One accept thread, one request at a time, loopback bind by default. Scrape
// handling never touches the instrumentation hot path — it reads the
// thread-safe registry the same way snapshot_text() does. Serving is
// bounded: request lines over 8 KiB are rejected, sockets get short
// timeouts, so a stuck scraper cannot wedge shutdown.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "amperebleed/obs/metrics.hpp"

namespace amperebleed::obs {

class HttpExporter {
 public:
  struct Config {
    /// TCP port; 0 asks the kernel for an ephemeral port (see port()).
    int port = 0;
    /// Bind address; loopback by default — telemetry stays on-host unless
    /// explicitly opened up.
    std::string bind_address = "127.0.0.1";
  };

  explicit HttpExporter(MetricsRegistry& registry);
  HttpExporter(MetricsRegistry& registry, Config config);
  ~HttpExporter();

  HttpExporter(const HttpExporter&) = delete;
  HttpExporter& operator=(const HttpExporter&) = delete;

  /// Serve `render()` on GET `path` as `content_type`. Registering a path
  /// again replaces its route; /metrics and /healthz are built in.
  void route(const std::string& path, std::string content_type,
             std::function<std::string()> render);

  /// Bind + listen + spawn the serve thread. Throws std::runtime_error when
  /// the port cannot be bound. Idempotent.
  void start();
  /// Stop serving and join. Idempotent; also runs from the destructor.
  void stop();

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  /// The bound port (resolves Config::port == 0); valid after start().
  [[nodiscard]] int port() const { return port_; }
  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  void serve_loop();
  void handle_connection(int client_fd);
  /// Route + method handling; strips the body (keeping Content-Length) for
  /// HEAD so probes see exactly the headers a GET would produce.
  [[nodiscard]] std::string build_response(const std::string& method,
                                           const std::string& path);
  /// The full GET response for a path (status line + headers + body).
  [[nodiscard]] std::string build_get_response(const std::string& path);

  MetricsRegistry& registry_;
  Config config_;
  struct Route {
    std::string content_type;
    std::function<std::string()> render;
  };
  std::map<std::string, Route> routes_;
  std::mutex routes_mu_;

  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::thread thread_;
  std::chrono::steady_clock::time_point started_at_{};
};

}  // namespace amperebleed::obs
