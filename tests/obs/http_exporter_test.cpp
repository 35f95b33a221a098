#include "amperebleed/obs/http_exporter.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include "amperebleed/obs/metrics.hpp"
#include "amperebleed/obs/prometheus.hpp"
#include "amperebleed/obs/run_record.hpp"
#include "amperebleed/util/json.hpp"

namespace amperebleed::obs {
namespace {

// Minimal blocking HTTP client against 127.0.0.1:port.
std::string http_get(int port, const std::string& path,
                     const std::string& method = "GET") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    ADD_FAILURE() << "connect to 127.0.0.1:" << port << " failed";
    return "";
  }
  const std::string request =
      method + " " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buffer[2048];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const std::size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

class HttpExporterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    registry_.counter("http.test.counter").inc(11);
    registry_.gauge("http.test.gauge").set(3.25);
    auto& histogram = registry_.histogram("http.test.latency_ns");
    for (int i = 1; i <= 100; ++i) histogram.observe(i * 100.0);
  }

  MetricsRegistry registry_;
};

TEST_F(HttpExporterTest, ServesPrometheusMetricsOnEphemeralPort) {
  HttpExporter server(registry_);
  server.start();
  ASSERT_GT(server.port(), 0);

  const std::string response = http_get(server.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string body = body_of(response);

  // One counter, one gauge, one histogram with buckets and quantiles.
  EXPECT_NE(body.find("# TYPE http_test_counter counter"),
            std::string::npos);
  EXPECT_NE(body.find("http_test_counter 11"), std::string::npos);
  EXPECT_NE(body.find("# TYPE http_test_gauge gauge"), std::string::npos);
  EXPECT_NE(body.find("# TYPE http_test_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(body.find("http_test_latency_ns_bucket{le=\"+Inf\"} 100"),
            std::string::npos);
  EXPECT_NE(body.find("http_test_latency_ns_count 100"), std::string::npos);
  EXPECT_NE(body.find("_quantiles{quantile=\"0.5\"}"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST_F(HttpExporterTest, HealthzAndScrapeCounting) {
  HttpExporter server(registry_);
  server.start();
  const std::string body = body_of(http_get(server.port(), "/healthz"));
  const util::Json doc = util::Json::parse(body);
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
  EXPECT_GE(doc.find("uptime_seconds")->as_number(), 0.0);
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_EQ(registry_.counter_value("obs_http_requests_total"), 1u);
  server.stop();
}

TEST_F(HttpExporterTest, RunRecordEndpoint) {
  HttpExporter server(registry_);
  server.start();
  // Before the route is registered: 404.
  EXPECT_NE(http_get(server.port(), "/runrecord").find("404"),
            std::string::npos);

  RunRecord record("http_test_bench");
  record.set_number("accuracy", 0.93);
  server.route("/runrecord", "application/json",
               [&record]() { return record.to_json().dump(2); });
  const std::string body = body_of(http_get(server.port(), "/runrecord"));
  const util::Json doc = util::Json::parse(body);
  EXPECT_EQ(doc.find("bench")->as_string(), "http_test_bench");
  EXPECT_DOUBLE_EQ(doc.find("numbers")->find("accuracy")->as_number(), 0.93);
  ASSERT_NE(doc.find("env"), nullptr);
  EXPECT_TRUE(doc.find("env")->find("hostname")->is_string());
  server.stop();
}

TEST_F(HttpExporterTest, HealthzFoldsChannelHealthGauges) {
  // ChannelHealth ordinals: Healthy=0, Degraded=1, Quarantined=2, Probing=3.
  registry_.gauge("sampler.health.ch0").set(0.0);
  registry_.gauge("sampler.health.ch1").set(2.0);
  registry_.gauge("sampler.health.ch2").set(1.0);
  HttpExporter server(registry_);
  server.start();
  const std::string response = http_get(server.port(), "/healthz");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  const util::Json doc = util::Json::parse(body_of(response));
  EXPECT_EQ(doc.find("status")->as_string(), "ok");
  const auto* channels = doc.find("channels");
  ASSERT_NE(channels, nullptr);
  EXPECT_EQ(channels->find("total")->as_integer(), 3);
  EXPECT_EQ(channels->find("healthy")->as_integer(), 1);
  EXPECT_EQ(channels->find("degraded")->as_integer(), 1);
  EXPECT_EQ(channels->find("quarantined")->as_integer(), 1);
  EXPECT_EQ(channels->find("probing")->as_integer(), 0);
  server.stop();
}

TEST_F(HttpExporterTest, HealthzDegradesWhenAllChannelsQuarantined) {
  registry_.gauge("sampler.health.ch0").set(2.0);
  registry_.gauge("sampler.health.ch1").set(2.0);
  HttpExporter server(registry_);
  server.start();
  const std::string response = http_get(server.port(), "/healthz");
  EXPECT_NE(response.find("503"), std::string::npos);
  const util::Json doc = util::Json::parse(body_of(response));
  EXPECT_EQ(doc.find("status")->as_string(), "unhealthy");
  EXPECT_EQ(doc.find("channels")->find("quarantined")->as_integer(), 2);
  server.stop();
}

TEST_F(HttpExporterTest, FlamegraphEndpoint) {
  HttpExporter server(registry_);
  server.start();
  // Before the route is registered: 404.
  EXPECT_NE(http_get(server.port(), "/flamegraph").find("404"),
            std::string::npos);
  server.route("/flamegraph", "text/plain; charset=utf-8",
               []() { return std::string("root;child 42\n"); });
  const std::string response = http_get(server.port(), "/flamegraph");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain"), std::string::npos);
  EXPECT_EQ(body_of(response), "root;child 42\n");
  server.stop();
}

TEST_F(HttpExporterTest, SloEndpoint) {
  HttpExporter server(registry_);
  server.start();
  EXPECT_NE(http_get(server.port(), "/slo").find("404"), std::string::npos);
  server.route("/slo", "application/json", []() {
    auto j = util::Json::object();
    j.set("now_s", util::Json::number(12.0));
    j.set("objectives", util::Json::array());
    return j.dump(2);
  });
  const std::string response = http_get(server.port(), "/slo");
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  const util::Json doc = util::Json::parse(body_of(response));
  EXPECT_DOUBLE_EQ(doc.find("now_s")->as_number(), 12.0);
  ASSERT_NE(doc.find("objectives"), nullptr);
  server.stop();
}

TEST_F(HttpExporterTest, UnknownPathAndMethod) {
  HttpExporter server(registry_);
  server.start();
  server.route("/slo", "application/json", []() { return std::string("{}"); });
  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);
  // The 404 body lists the built-in and the registered routes.
  EXPECT_NE(body_of(missing).find("/metrics /healthz /slo"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/metrics", "POST").find("405"),
            std::string::npos);
  // Query strings are stripped before routing.
  EXPECT_NE(http_get(server.port(), "/healthz?verbose=1").find("200 OK"),
            std::string::npos);
  server.stop();
}

TEST_F(HttpExporterTest, HeadSendsHeadersOnlyWithGetContentLength) {
  // Regression: HEAD used to answer with the full GET body attached. A HEAD
  // probe must get the same status line and headers — Content-Length still
  // advertising the would-be GET body — and not a single body byte.
  HttpExporter server(registry_);
  server.start();

  const std::string get = http_get(server.port(), "/metrics");
  const std::string head = http_get(server.port(), "/metrics", "HEAD");
  EXPECT_NE(head.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_TRUE(body_of(head).empty()) << head;
  // Identical headers: the HEAD response is exactly the GET response
  // truncated after the blank line.
  const std::size_t get_headers_end = get.find("\r\n\r\n");
  ASSERT_NE(get_headers_end, std::string::npos);
  EXPECT_EQ(head, get.substr(0, get_headers_end + 4));
  // And the advertised Content-Length matches the GET body actually served.
  const std::size_t cl = head.find("Content-Length: ");
  ASSERT_NE(cl, std::string::npos);
  EXPECT_EQ(std::stoul(head.substr(cl + 16)), body_of(get).size());

  // Non-200 routes keep the same contract.
  const std::string missing = http_get(server.port(), "/nope", "HEAD");
  EXPECT_NE(missing.find("404"), std::string::npos);
  EXPECT_TRUE(body_of(missing).empty()) << missing;
  server.stop();
}

TEST_F(HttpExporterTest, StartStopIdempotentAndRebindable) {
  HttpExporter server(registry_);
  server.start();
  const int port = server.port();
  server.start();  // no-op
  EXPECT_EQ(server.port(), port);
  server.stop();
  server.stop();  // no-op

  // A second server can bind a fresh ephemeral port immediately.
  HttpExporter second(registry_);
  second.start();
  EXPECT_GT(second.port(), 0);
  second.stop();
}

TEST(PrometheusText, SanitizesNamesAndRendersDeterministically) {
  EXPECT_EQ(prometheus_metric_name("sampler.poll_latency_ns"),
            "sampler_poll_latency_ns");
  EXPECT_EQ(prometheus_metric_name("9lives"), "_lives");
  EXPECT_EQ(prometheus_metric_name("a-b/c"), "a_b_c");
  EXPECT_EQ(prometheus_metric_name(""), "_");

  MetricsRegistry registry;
  registry.counter("z.last").inc(1);
  registry.counter("a.first").inc(2);
  const std::string text = to_prometheus_text(registry);
  EXPECT_LT(text.find("a_first 2"), text.find("z_last 1"));
  EXPECT_EQ(text, to_prometheus_text(registry)) << "rendering must be stable";
}

}  // namespace
}  // namespace amperebleed::obs
