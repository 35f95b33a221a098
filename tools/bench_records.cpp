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
  if (const util::Json* samples = doc.find("samples");
      samples != nullptr && samples->is_object()) {
    for (const auto& key : samples->keys()) {
      const util::Json* arr = samples->find(key);
      if (arr == nullptr || !arr->is_array()) continue;
      std::vector<double>& values = record.samples[key];
      values.reserve(arr->size());
      for (std::size_t i = 0; i < arr->size(); ++i) {
        if (arr->at(i).is_number()) values.push_back(arr->at(i).as_number());
      }
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

MannWhitneyResult mann_whitney_u(std::span<const double> a,
                                 std::span<const double> b) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("mann_whitney_u: empty sample");
  }
  const std::size_t na = a.size();
  const std::size_t nb = b.size();
  const std::size_t n = na + nb;

  // Pool, remembering group membership, and assign midranks.
  std::vector<std::pair<double, bool>> pooled;  // value, is_from_a
  pooled.reserve(n);
  for (double v : a) pooled.emplace_back(v, true);
  for (double v : b) pooled.emplace_back(v, false);
  std::sort(pooled.begin(), pooled.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });

  double rank_sum_a = 0.0;
  double tie_term = 0.0;  // sum over tie groups of t^3 - t
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i;
    while (j < n && pooled[j].first == pooled[i].first) ++j;
    const double t = static_cast<double>(j - i);
    // Midrank of the tie group [i, j) with 1-based ranks.
    const double midrank = (static_cast<double>(i + 1) +
                            static_cast<double>(j)) / 2.0;
    for (std::size_t k = i; k < j; ++k) {
      if (pooled[k].second) rank_sum_a += midrank;
    }
    tie_term += t * t * t - t;
    i = j;
  }

  MannWhitneyResult result;
  const double dna = static_cast<double>(na);
  const double dnb = static_cast<double>(nb);
  result.u = rank_sum_a - dna * (dna + 1.0) / 2.0;

  const double mu = dna * dnb / 2.0;
  const double dn = static_cast<double>(n);
  double var = dna * dnb / 12.0 * (dn + 1.0);
  if (dn > 1.0) {
    var = dna * dnb / 12.0 * ((dn + 1.0) - tie_term / (dn * (dn - 1.0)));
  }
  if (var <= 0.0) {
    // All pooled values identical: no evidence of a shift.
    result.z = 0.0;
    result.p_value = 1.0;
    return result;
  }
  // Continuity correction towards the mean.
  const double diff = result.u - mu;
  const double corrected =
      diff > 0.5 ? diff - 0.5 : (diff < -0.5 ? diff + 0.5 : 0.0);
  result.z = corrected / std::sqrt(var);
  result.p_value =
      std::clamp(std::erfc(std::fabs(result.z) / std::sqrt(2.0)), 0.0, 1.0);
  return result;
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
                                const BenchRecord& current,
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
  Verdict fast = Verdict::Unchanged;
  if (badness > options.threshold) {
    fast = Verdict::Regression;
  } else if (badness < -options.threshold) {
    fast = Verdict::Improvement;
  }

  // Noise-aware path: with repetition samples on both sides, a delta only
  // counts when Mann-Whitney rejects the null as well.
  const auto base_samples = baseline.samples.find(key);
  const auto cur_samples = current.samples.find(key);
  if (fast != Verdict::Unchanged && base_samples != baseline.samples.end() &&
      cur_samples != current.samples.end() &&
      !base_samples->second.empty() && !cur_samples->second.empty()) {
    const auto result =
        mann_whitney_u(base_samples->second, cur_samples->second);
    comparison.used_mann_whitney = true;
    comparison.p_value = result.p_value;
    if (result.p_value >= options.alpha) fast = Verdict::Unchanged;
  }
  comparison.verdict = fast;
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
      MetricComparison comparison = compare_metric(
          base, cur, key, base_value, cur_value->second, options);
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
    if (c.used_mann_whitney) {
      entry.set("mann_whitney_p", util::Json::number(c.p_value));
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
    std::string verdict = verdict_name(c.verdict);
    if (c.used_mann_whitney) {
      verdict += util::format(" (MWU p=%.4g)", c.p_value);
    }
    out += util::format("%-28s %-28s %14.6g %14.6g %9s %s\n", c.bench.c_str(),
                        c.key.c_str(), c.baseline, c.current, delta.c_str(),
                        verdict.c_str());
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
