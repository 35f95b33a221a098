#include "amperebleed/obs/run_record.hpp"

#include <unistd.h>

#include <cstdlib>
#include <ctime>

#include "amperebleed/util/fs.hpp"

namespace amperebleed::obs {

const RunEnvironment& RunEnvironment::current() {
  static const RunEnvironment env = [] {
    RunEnvironment e;

    const char* sha = std::getenv("AMPEREBLEED_GIT_SHA");
    if (sha != nullptr && *sha != '\0') {
      e.git_sha = sha;
    } else {
#ifdef AMPEREBLEED_GIT_SHA
      e.git_sha = AMPEREBLEED_GIT_SHA;
#else
      e.git_sha = "unknown";
#endif
    }

    char host[256] = {};
    if (::gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0') {
      e.hostname = host;
    } else {
      e.hostname = "unknown";
    }

#ifdef AMPEREBLEED_BUILD_TYPE
    e.build_type = AMPEREBLEED_BUILD_TYPE;
#elif defined(NDEBUG)
    e.build_type = "Release";
#else
    e.build_type = "Debug";
#endif
    if (e.build_type.empty()) e.build_type = "unknown";
    return e;
  }();
  return env;
}

RunRecord::RunRecord(std::string bench_name)
    : name_(std::move(bench_name)), start_(std::chrono::steady_clock::now()) {}

void RunRecord::set_number(const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [k, v] : numbers_) {
    if (k == key) {
      v = util::Json::number(value);
      return;
    }
  }
  numbers_.emplace_back(key, util::Json::number(value));
}

void RunRecord::set_integer(const std::string& key, std::int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [k, v] : numbers_) {
    if (k == key) {
      v = util::Json::integer(value);
      return;
    }
  }
  numbers_.emplace_back(key, util::Json::integer(value));
}

void RunRecord::set_text(const std::string& key, std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [k, v] : text_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  text_.emplace_back(key, std::move(value));
}

void RunRecord::add_sample(const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [k, values] : samples_) {
    if (k == key) {
      values.push_back(value);
      return;
    }
  }
  samples_.emplace_back(key, std::vector<double>{value});
}

double RunRecord::elapsed_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

util::Json RunRecord::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  auto root = util::Json::object();
  root.set("bench", util::Json::string(name_));
  root.set("wall_seconds", util::Json::number(elapsed_seconds()));
  root.set("unix_time",
           util::Json::integer(static_cast<std::int64_t>(std::time(nullptr))));

  const RunEnvironment& environment = RunEnvironment::current();
  auto env = util::Json::object();
  env.set("git_sha", util::Json::string(environment.git_sha));
  env.set("hostname", util::Json::string(environment.hostname));
  env.set("build_type", util::Json::string(environment.build_type));
  root.set("env", std::move(env));

  auto numbers = util::Json::object();
  for (const auto& [k, v] : numbers_) numbers.set(k, v);
  root.set("numbers", std::move(numbers));

  auto text = util::Json::object();
  for (const auto& [k, v] : text_) text.set(k, util::Json::string(v));
  root.set("text", std::move(text));

  if (!samples_.empty()) {
    auto samples = util::Json::object();
    for (const auto& [k, values] : samples_) {
      auto arr = util::Json::array();
      for (double v : values) arr.push_back(util::Json::number(v));
      samples.set(k, std::move(arr));
    }
    root.set("samples", std::move(samples));
  }
  return root;
}

std::string RunRecord::default_path() const {
  return "BENCH_" + name_ + ".json";
}

void RunRecord::write(const std::string& path) const {
  util::atomic_write_file(path, to_json().dump(2) + "\n");
}

}  // namespace amperebleed::obs
