#include "amperebleed/obs/http_exporter.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "amperebleed/obs/prometheus.hpp"
#include "amperebleed/util/json.hpp"
#include "amperebleed/util/strings.hpp"

namespace amperebleed::obs {

namespace {

constexpr std::size_t kMaxRequestBytes = 8 * 1024;
constexpr int kPollIntervalMs = 100;
constexpr int kClientTimeoutMs = 2000;

std::string make_response(int status, const char* reason,
                          const char* content_type, const std::string& body) {
  std::string response = util::format(
      "HTTP/1.1 %d %s\r\n"
      "Content-Type: %s\r\n"
      "Content-Length: %zu\r\n"
      "Connection: close\r\n"
      "\r\n",
      status, reason, content_type, body.size());
  response += body;
  return response;
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR)) continue;
      return;  // client went away; nothing to salvage
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

HttpExporter::HttpExporter(MetricsRegistry& registry)
    : HttpExporter(registry, Config{}) {}

HttpExporter::HttpExporter(MetricsRegistry& registry, Config config)
    : registry_(registry), config_(std::move(config)) {}

HttpExporter::~HttpExporter() { stop(); }

void HttpExporter::route(const std::string& path, std::string content_type,
                         std::function<std::string()> render) {
  std::lock_guard<std::mutex> lock(routes_mu_);
  routes_[path] = Route{std::move(content_type), std::move(render)};
}

void HttpExporter::start() {
  if (running_.load(std::memory_order_acquire)) return;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("HttpExporter: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpExporter: bad bind address '" +
                             config_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error(
        util::format("HttpExporter: bind to %s:%d failed (%s)",
                     config_.bind_address.c_str(), config_.port,
                     std::strerror(err)));
  }
  if (::listen(listen_fd_, 8) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpExporter: listen() failed");
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  } else {
    port_ = config_.port;
  }

  stop_requested_.store(false, std::memory_order_release);
  started_at_ = std::chrono::steady_clock::now();
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve_loop(); });
}

void HttpExporter::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void HttpExporter::serve_loop() {
  while (!stop_requested_.load(std::memory_order_acquire)) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kPollIntervalMs);
    if (ready <= 0) continue;  // timeout / EINTR: re-check the stop flag
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    handle_connection(client);
    ::close(client);
  }
}

void HttpExporter::handle_connection(int client_fd) {
  timeval timeout{};
  timeout.tv_sec = kClientTimeoutMs / 1000;
  timeout.tv_usec = (kClientTimeoutMs % 1000) * 1000;
  ::setsockopt(client_fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(client_fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  std::string request;
  char buffer[1024];
  while (request.size() < kMaxRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos &&
         request.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(client_fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    request.append(buffer, static_cast<std::size_t>(n));
  }

  // Only the request line matters: "<METHOD> <path> HTTP/1.1".
  const std::size_t eol = request.find_first_of("\r\n");
  const std::string line =
      eol == std::string::npos ? request : request.substr(0, eol);
  const auto parts = util::split(line, ' ');
  if (parts.size() < 2) {
    send_all(client_fd, make_response(400, "Bad Request", "text/plain",
                                      "bad request\n"));
    return;
  }
  const std::string& method = parts[0];
  // Strip any query string; routes don't take parameters.
  std::string path = parts[1];
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  requests_.fetch_add(1, std::memory_order_relaxed);
  registry_.counter("obs_http_requests_total").inc();
  send_all(client_fd, build_response(method, path));
}

std::string HttpExporter::build_response(const std::string& method,
                                         const std::string& path) {
  if (method != "GET" && method != "HEAD") {
    return make_response(405, "Method Not Allowed", "text/plain",
                         "only GET and HEAD are supported\n");
  }
  std::string response = build_get_response(path);
  if (method == "HEAD") {
    // Headers only — Content-Length still advertises the GET body's size,
    // which is the whole point of a HEAD probe.
    response.resize(response.find("\r\n\r\n") + 4);
  }
  return response;
}

std::string HttpExporter::build_get_response(const std::string& path) {
  if (path == "/metrics") {
    return make_response(200, "OK",
                         "text/plain; version=0.0.4; charset=utf-8",
                         to_prometheus_text(registry_));
  }
  if (path == "/healthz") {
    // Fold the sampler's per-channel health gauges (published as
    // sampler.health.<channel>, value = ChannelHealth ordinal) into
    // per-state counts. All-quarantined means no channel can produce
    // data: that is a 503, the signal an LB health check keys off.
    const auto channel_gauges =
        registry_.gauge_names_with_prefix("sampler.health.");
    static constexpr const char* kStateNames[] = {"healthy", "degraded",
                                                  "quarantined", "probing"};
    std::size_t counts[4] = {0, 0, 0, 0};
    for (const auto& name : channel_gauges) {
      const auto state =
          static_cast<std::int64_t>(registry_.gauge_value(name, 0.0));
      if (state >= 0 && state < 4) ++counts[static_cast<std::size_t>(state)];
    }
    const bool all_quarantined =
        !channel_gauges.empty() && counts[2] == channel_gauges.size();

    auto channels = util::Json::object();
    channels.set("total", util::Json::integer(static_cast<std::int64_t>(
                              channel_gauges.size())));
    for (std::size_t s = 0; s < 4; ++s) {
      channels.set(kStateNames[s], util::Json::integer(
                                       static_cast<std::int64_t>(counts[s])));
    }

    // Durable-storage health (published by serve:: when durability is on).
    // Degraded storage keeps classify serving, so it is a 200 with status
    // "degraded" — visible to operators, invisible to LB liveness.
    const auto storage_gauges =
        registry_.gauge_names_with_prefix("serve.storage.degraded");
    const bool storage_present = !storage_gauges.empty();
    const bool storage_degraded =
        storage_present &&
        registry_.gauge_value("serve.storage.degraded", 0.0) != 0.0;

    auto body = util::Json::object();
    body.set("status",
             util::Json::string(all_quarantined  ? "unhealthy"
                                : storage_degraded ? "degraded"
                                                   : "ok"));
    if (storage_present) {
      auto storage = util::Json::object();
      storage.set("degraded", util::Json::boolean(storage_degraded));
      storage.set("last_seq",
                  util::Json::integer(static_cast<std::int64_t>(
                      registry_.gauge_value("serve.storage.last_seq", 0.0))));
      body.set("storage", std::move(storage));
    }
    body.set("uptime_seconds",
             util::Json::number(std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    started_at_)
                                    .count()));
    body.set("requests_served",
             util::Json::integer(static_cast<std::int64_t>(
                 requests_.load(std::memory_order_relaxed))));
    body.set("channels", std::move(channels));
    if (all_quarantined) {
      return make_response(503, "Service Unavailable", "application/json",
                           body.dump(2) + "\n");
    }
    return make_response(200, "OK", "application/json",
                         body.dump(2) + "\n");
  }
  Route route;
  std::string served = "/metrics /healthz";
  {
    std::lock_guard<std::mutex> lock(routes_mu_);
    const auto it = routes_.find(path);
    if (it != routes_.end()) {
      route = it->second;
    } else {
      for (const auto& entry : routes_) served += " " + entry.first;
    }
  }
  if (route.render) {
    return make_response(200, "OK", route.content_type.c_str(),
                         route.render());
  }
  return make_response(404, "Not Found", "text/plain",
                       "unknown path; try " + served + "\n");
}

}  // namespace amperebleed::obs
