#pragma once
// Scoped environment edits for tests that read a variable the CI matrix
// also sets (AMPEREBLEED_THREADS, AMPEREBLEED_FAULT_SEED): the variable is
// put back to what it was, set or unset, when the scope ends, so the tests
// after it in the same binary still run under the matrix value.

#include <cstdlib>
#include <optional>
#include <string>

namespace amperebleed::test {

class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    if (const char* value = std::getenv(name)) before_ = value;
  }
  ~ScopedEnv() {
    if (before_) {
      ::setenv(name_, before_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  void set(const char* value) const { ::setenv(name_, value, 1); }
  void unset() const { ::unsetenv(name_); }

 private:
  const char* name_;
  std::optional<std::string> before_;
};

}  // namespace amperebleed::test
