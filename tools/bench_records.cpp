#include "bench_records.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "amperebleed/util/strings.hpp"

namespace amperebleed::tools {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Loading

BenchRecord parse_bench_record(const util::Json& doc,
                               std::string source_path) {
  if (!doc.is_object() || doc.find("bench") == nullptr ||
      !doc.find("bench")->is_string()) {
    throw std::runtime_error("bench record" +
                             (source_path.empty() ? std::string()
                                                  : " '" + source_path + "'") +
                             ": missing \"bench\" name");
  }
  BenchRecord record;
  record.bench = doc.find("bench")->as_string();
  record.source_path = std::move(source_path);

  if (const util::Json* t = doc.find("unix_time");
      t != nullptr && t->is_number()) {
    record.unix_time = static_cast<std::int64_t>(t->as_number());
  }
  if (const util::Json* wall = doc.find("wall_seconds");
      wall != nullptr && wall->is_number()) {
    record.numbers["wall_seconds"] = wall->as_number();
  }
  if (const util::Json* numbers = doc.find("numbers");
      numbers != nullptr && numbers->is_object()) {
    for (const auto& key : numbers->keys()) {
      const util::Json* v = numbers->find(key);
      if (v != nullptr && v->is_number()) record.numbers[key] = v->as_number();
    }
  }
  if (const util::Json* text = doc.find("text");
      text != nullptr && text->is_object()) {
    for (const auto& key : text->keys()) {
      const util::Json* v = text->find(key);
      if (v != nullptr && v->is_string()) record.text[key] = v->as_string();
    }
  }
  if (const util::Json* env = doc.find("env");
      env != nullptr && env->is_object()) {
    for (const auto& key : env->keys()) {
      const util::Json* v = env->find(key);
      if (v != nullptr && v->is_string()) record.env[key] = v->as_string();
    }
  }
  return record;
}

BenchRecord load_bench_record(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("bench_compare: cannot open '" + path + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_bench_record(util::Json::parse(text.str()), path);
}

std::vector<BenchRecord> load_trajectory_dir(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (util::starts_with(name, "BENCH_") && util::ends_with(name, ".json")) {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    throw std::runtime_error("bench_compare: cannot read directory '" + dir +
                             "': " + ec.message());
  }
  if (paths.empty()) {
    throw std::runtime_error("bench_compare: no BENCH_*.json records in '" +
                             dir + "'");
  }
  std::vector<BenchRecord> records;
  records.reserve(paths.size());
  for (const auto& path : paths) records.push_back(load_bench_record(path));
  std::sort(records.begin(), records.end(),
            [](const BenchRecord& a, const BenchRecord& b) {
              return a.bench < b.bench;
            });
  return records;
}

std::vector<BenchRecord> load_records(const std::string& path) {
  std::error_code ec;
  if (fs::is_directory(path, ec)) return load_trajectory_dir(path);
  return {load_bench_record(path)};
}

// ---------------------------------------------------------------------------
// Comparison

double parse_threshold(const std::string& text) {
  std::size_t used = 0;
  double value = std::numeric_limits<double>::quiet_NaN();
  try {
    value = std::stod(text, &used);
  } catch (const std::logic_error&) {
    // Not a number, or out of double range: value stays NaN.
  }
  if (used != text.size() || !std::isfinite(value) || value < 0.0) {
    throw std::invalid_argument(
        "--threshold wants a finite number >= 0, got '" + text + "'");
  }
  return value;
}

MetricDirection metric_direction(std::string_view key) {
  static constexpr std::string_view kLowerIsBetter[] = {
      "seconds", "latency", "time",    "_ns",     "_ms",     "_us",
      "error",   "denied",  "dropped", "failure", "stale",   "fpr",
      "loss",    "miss",    "overhead"};
  for (std::string_view marker : kLowerIsBetter) {
    if (key.find(marker) != std::string_view::npos) {
      return MetricDirection::LowerIsBetter;
    }
  }
  return MetricDirection::HigherIsBetter;
}

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::Unchanged:
      return "unchanged";
    case Verdict::Improvement:
      return "improvement";
    case Verdict::Regression:
      return "regression";
  }
  return "unknown";
}

namespace {

bool key_matches(const std::string& key,
                 const std::vector<std::string>& include,
                 const std::vector<std::string>& exclude) {
  for (const auto& marker : exclude) {
    if (key.find(marker) != std::string::npos) return false;
  }
  if (include.empty()) return true;
  for (const auto& marker : include) {
    if (key.find(marker) != std::string::npos) return true;
  }
  return false;
}

/// How compare_records treats a baseline key under the options.
enum class KeyRole { Skipped, Informational, Gated };

KeyRole key_role(const std::string& key, const CompareOptions& options) {
  // stage_/slo_ keys are pipeline attribution and drift_/quality_ keys are
  // quality telemetry, not gated perf metrics: hidden unless --stages /
  // --quality, and informational (non-gating) even then.
  const bool stage_key =
      util::starts_with(key, "stage_") || util::starts_with(key, "slo_");
  const bool quality_key =
      util::starts_with(key, "drift_") || util::starts_with(key, "quality_");
  if (stage_key && !options.show_stages) return KeyRole::Skipped;
  if (quality_key && !options.show_quality) return KeyRole::Skipped;
  if (!key_matches(key, options.include, options.exclude)) {
    return KeyRole::Skipped;
  }
  return stage_key || quality_key ? KeyRole::Informational : KeyRole::Gated;
}

std::string env_value(const BenchRecord& record, const char* key) {
  const auto it = record.env.find(key);
  return it == record.env.end() ? std::string("unknown") : it->second;
}

void check_env(const BenchRecord& baseline, const BenchRecord& current,
               CompareReport& report) {
  for (const char* key : {"hostname", "build_type"}) {
    const std::string b = env_value(baseline, key);
    const std::string c = env_value(current, key);
    if (b != c && b != "unknown" && c != "unknown") {
      report.env_mismatch = true;
      report.warnings.push_back(util::format(
          "%s: %s differs (baseline '%s' vs current '%s') — deltas measure "
          "the environment, not the code",
          baseline.bench.c_str(), key, b.c_str(), c.c_str()));
    }
  }
}

MetricComparison compare_metric(const BenchRecord& baseline,
                                const std::string& key, double base_value,
                                double cur_value,
                                const CompareOptions& options) {
  MetricComparison comparison;
  comparison.bench = baseline.bench;
  comparison.key = key;
  comparison.baseline = base_value;
  comparison.current = cur_value;
  comparison.abs_delta = cur_value - base_value;
  comparison.rel_delta =
      base_value == 0.0 ? (cur_value == 0.0 ? 0.0
                                            : std::copysign(
                                                  std::numeric_limits<
                                                      double>::infinity(),
                                                  comparison.abs_delta))
                        : comparison.abs_delta / std::fabs(base_value);
  comparison.direction = metric_direction(key);

  // Signed "badness": positive when the metric moved in the bad direction.
  const double badness = comparison.direction == MetricDirection::LowerIsBetter
                             ? comparison.rel_delta
                             : -comparison.rel_delta;
  if (badness > options.threshold) {
    comparison.verdict = Verdict::Regression;
  } else if (badness < -options.threshold) {
    comparison.verdict = Verdict::Improvement;
  }
  return comparison;
}

}  // namespace

CompareReport compare_records(const std::vector<BenchRecord>& baseline,
                              const std::vector<BenchRecord>& current,
                              const CompareOptions& options) {
  CompareReport report;

  std::map<std::string, const BenchRecord*> base_by_name;
  for (const auto& record : baseline) base_by_name[record.bench] = &record;
  std::set<std::string> matched;

  for (const auto& cur : current) {
    const auto it = base_by_name.find(cur.bench);
    if (it == base_by_name.end()) {
      report.warnings.push_back(cur.bench +
                                ": no baseline record (new bench?)");
      continue;
    }
    matched.insert(cur.bench);
    const BenchRecord& base = *it->second;
    check_env(base, cur, report);

    for (const auto& [key, base_value] : base.numbers) {
      const KeyRole role = key_role(key, options);
      if (role == KeyRole::Skipped) continue;
      const auto cur_value = cur.numbers.find(key);
      if (cur_value == cur.numbers.end()) {
        // A record produced with obs off simply lacks stage keys — that is
        // not a failure.
        if (role == KeyRole::Gated) {
          report.missing.push_back(cur.bench + "." + key);
        }
        continue;
      }
      MetricComparison comparison =
          compare_metric(base, key, base_value, cur_value->second, options);
      comparison.informational = role == KeyRole::Informational;
      report.comparisons.push_back(std::move(comparison));
    }
  }
  for (const auto& [name, record] : base_by_name) {
    if (matched.count(name) != 0) continue;
    const bool gated = std::any_of(
        record->numbers.begin(), record->numbers.end(), [&](const auto& kv) {
          return key_role(kv.first, options) == KeyRole::Gated;
        });
    if (gated) {
      report.missing.push_back(name);
    } else {
      report.warnings.push_back(name + ": baseline bench missing from "
                                       "current snapshot");
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Reporting

std::size_t CompareReport::regressions() const {
  return static_cast<std::size_t>(
      std::count_if(comparisons.begin(), comparisons.end(),
                    [](const MetricComparison& c) {
                      return !c.informational &&
                             c.verdict == Verdict::Regression;
                    }));
}

std::size_t CompareReport::improvements() const {
  return static_cast<std::size_t>(
      std::count_if(comparisons.begin(), comparisons.end(),
                    [](const MetricComparison& c) {
                      return !c.informational &&
                             c.verdict == Verdict::Improvement;
                    }));
}

util::Json CompareReport::to_json() const {
  auto root = util::Json::object();
  auto list = util::Json::array();
  for (const auto& c : comparisons) {
    auto entry = util::Json::object();
    entry.set("bench", util::Json::string(c.bench));
    entry.set("metric", util::Json::string(c.key));
    entry.set("baseline", util::Json::number(c.baseline));
    entry.set("current", util::Json::number(c.current));
    entry.set("abs_delta", util::Json::number(c.abs_delta));
    entry.set("rel_delta", util::Json::number(std::isfinite(c.rel_delta)
                                                  ? c.rel_delta
                                                  : 1e308));
    entry.set("direction",
              util::Json::string(c.direction == MetricDirection::LowerIsBetter
                                     ? "lower_is_better"
                                     : "higher_is_better"));
    entry.set("verdict", util::Json::string(verdict_name(c.verdict)));
    if (c.informational) {
      entry.set("informational", util::Json::boolean(true));
    }
    list.push_back(std::move(entry));
  }
  root.set("comparisons", std::move(list));
  auto warn = util::Json::array();
  for (const auto& w : warnings) warn.push_back(util::Json::string(w));
  root.set("warnings", std::move(warn));
  auto missing_list = util::Json::array();
  for (const auto& m : missing) missing_list.push_back(util::Json::string(m));
  root.set("missing", std::move(missing_list));
  root.set("env_mismatch", util::Json::boolean(env_mismatch));
  root.set("regressions",
           util::Json::integer(static_cast<std::int64_t>(regressions())));
  root.set("improvements",
           util::Json::integer(static_cast<std::int64_t>(improvements())));
  return root;
}

std::string CompareReport::to_table(bool verbose) const {
  std::string out;
  out += util::format("%-28s %-28s %14s %14s %9s %s\n", "bench", "metric",
                      "baseline", "current", "delta", "verdict");
  const auto row = [&out](const MetricComparison& c) {
    const std::string delta =
        std::isfinite(c.rel_delta)
            ? util::format("%+8.2f%%", c.rel_delta * 100.0)
            : std::string("     +inf");
    out += util::format("%-28s %-28s %14.6g %14.6g %9s %s\n", c.bench.c_str(),
                        c.key.c_str(), c.baseline, c.current, delta.c_str(),
                        verdict_name(c.verdict));
  };
  // Interesting rows first; unchanged rows only in verbose mode.
  // Informational (stage_/slo_) rows go in their own non-gating section.
  for (const auto& c : comparisons) {
    if (!c.informational && c.verdict == Verdict::Regression) row(c);
  }
  for (const auto& c : comparisons) {
    if (!c.informational && c.verdict == Verdict::Improvement) row(c);
  }
  std::size_t unchanged = 0;
  for (const auto& c : comparisons) {
    if (!c.informational && c.verdict == Verdict::Unchanged) {
      if (verbose) row(c);
      ++unchanged;
    }
  }
  bool stage_header = false;
  for (const auto& c : comparisons) {
    if (!c.informational) continue;
    if (!stage_header) {
      out += "\nper-stage / SLO / quality metrics (informational, never "
             "gate):\n";
      stage_header = true;
    }
    row(c);
  }
  out += util::format(
      "\n%zu metric(s): %zu regression(s), %zu improvement(s), %zu "
      "unchanged%s\n",
      comparisons.size(), regressions(), improvements(), unchanged,
      verbose || unchanged == 0 ? "" : " (hidden; --verbose shows them)");
  for (const auto& m : missing) {
    out += "missing: " + m + " (in the baseline, not in the current "
           "snapshot; fails the gate)\n";
  }
  for (const auto& w : warnings) out += "warning: " + w + "\n";
  return out;
}

}  // namespace amperebleed::tools
