#include "amperebleed/obs/prometheus.hpp"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

#include "amperebleed/util/strings.hpp"

namespace amperebleed::obs {

std::string prometheus_metric_name(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0;
    const bool digit = std::isdigit(static_cast<unsigned char>(c)) != 0;
    const bool ok = alpha || c == '_' || c == ':' || (digit && i > 0);
    out.push_back(ok ? c : '_');
  }
  if (out.empty()) out.push_back('_');
  return out;
}

std::string prometheus_escape_label_value(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

namespace {

std::string fmt_value(double v) {
  // printf renders non-finite doubles as "nan"/"inf"; the exposition format
  // requires the exact tokens "NaN", "+Inf" and "-Inf".
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return util::format("%.17g", v);
}

// Renders from the registry's JSON snapshot — the one already-locked,
// point-in-time view — so text and JSON exports can never disagree.
void render_histogram(const std::string& name, const util::Json& entry,
                      std::string& out) {
  const util::Json* buckets = entry.find("buckets");
  const util::Json* sum = entry.find("sum");
  const util::Json* count = entry.find("count");
  if (buckets == nullptr || sum == nullptr || count == nullptr) return;

  out += "# TYPE " + name + " histogram\n";
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets->size(); ++i) {
    const util::Json& bucket = buckets->at(i);
    const util::Json* le = bucket.find("le");
    const util::Json* bucket_count = bucket.find("count");
    if (le == nullptr || bucket_count == nullptr) continue;
    cumulative += static_cast<std::uint64_t>(bucket_count->as_integer());
    const std::string le_text =
        le->is_string() ? "+Inf" : fmt_value(le->as_number());
    out += name + "_bucket{le=\"" + le_text + "\"} " +
           util::format("%llu", static_cast<unsigned long long>(cumulative)) +
           "\n";
  }
  out += name + "_sum " + fmt_value(sum->as_number()) + "\n";
  out += name + "_count " +
         util::format("%llu",
                      static_cast<unsigned long long>(count->as_integer())) +
         "\n";

  // Companion summary with the streaming quantile estimates ("p50" JSON keys
  // map to {quantile="0.5"} samples).
  std::string quantile_lines;
  for (const auto& key : entry.keys()) {
    if (key.size() < 2 || key[0] != 'p') continue;
    char* end = nullptr;
    const double percent = std::strtod(key.c_str() + 1, &end);
    if (end == nullptr || *end != '\0') continue;
    const util::Json* value = entry.find(key);
    if (value == nullptr || !value->is_number()) continue;
    quantile_lines += name + "_quantiles{quantile=\"" +
                      util::format("%g", percent / 100.0) + "\"} " +
                      fmt_value(value->as_number()) + "\n";
  }
  if (!quantile_lines.empty()) {
    out += "# TYPE " + name + "_quantiles summary\n";
    out += quantile_lines;
    out += name + "_quantiles_sum " + fmt_value(sum->as_number()) + "\n";
    out += name + "_quantiles_count " +
           util::format("%llu",
                        static_cast<unsigned long long>(count->as_integer())) +
           "\n";
  }
}

}  // namespace

std::string to_prometheus_text(const MetricsRegistry& registry) {
  const util::Json snapshot = registry.to_json();
  std::string out;

  if (const util::Json* counters = snapshot.find("counters")) {
    for (const auto& key : counters->keys()) {
      const std::string name = prometheus_metric_name(key);
      out += "# TYPE " + name + " counter\n";
      out += name + " " +
             util::format("%llu", static_cast<unsigned long long>(
                                      counters->find(key)->as_integer())) +
             "\n";
    }
  }
  if (const util::Json* gauges = snapshot.find("gauges")) {
    for (const auto& key : gauges->keys()) {
      const std::string name = prometheus_metric_name(key);
      out += "# TYPE " + name + " gauge\n";
      out += name + " " + fmt_value(gauges->find(key)->as_number()) + "\n";
    }
  }
  if (const util::Json* histograms = snapshot.find("histograms")) {
    for (const auto& key : histograms->keys()) {
      render_histogram(prometheus_metric_name(key), *histograms->find(key),
                       out);
    }
  }
  return out;
}

}  // namespace amperebleed::obs
