#pragma once
// One tenant's enrollment namespace: an OnlineFingerprinter wrapped in the
// session lifecycle  enroll -> train -> serve -> retire.  Tenants are fully
// isolated — each owns its forest, class names and feature width; nothing a
// tenant enrolls can influence another tenant's verdicts.
//
// The session state machine converts the fingerprinter's exceptions into
// typed ServeStatus values so the service can answer malformed or
// out-of-order requests instead of dying:
//
//   Enrolling --train()--> Serving --retire()--> Retired
//       \----------------retire()---------------^
//
// Only the service's tick loop mutates a TenantSession (single-threaded);
// classification against a Serving tenant is const and safe to run
// concurrently from pool workers.

#include <cstdint>
#include <string>
#include <string_view>

#include "amperebleed/core/online.hpp"
#include "amperebleed/serve/types.hpp"

namespace amperebleed::serve {

class TenantSession {
 public:
  enum class State { Enrolling, Serving, Retired };

  TenantSession(std::string name, core::OnlineFingerprinterConfig config);

  /// A session rebuilt from persisted state (serve/service.cpp recovery):
  /// adopts a fingerprinter from OnlineFingerprinter::restore and takes the
  /// lifecycle state and tallies verbatim. Classify verdicts on the
  /// restored session are bit-identical to the original.
  TenantSession(std::string name, State state, std::uint64_t enrolled,
                std::uint64_t classified,
                core::OnlineFingerprinter fingerprinter);

  /// Add one labelled trace. Errors: TenantRetired, AlreadyTrained,
  /// InvalidRequest (empty trace / shorter than the namespace's feature
  /// width). `error` (optional) receives human context on failure.
  ServeStatus enroll(const core::Trace& trace, const std::string& label,
                     std::string* error = nullptr);

  /// Freeze the namespace: fit the forest, transition to Serving. Errors:
  /// TenantRetired, AlreadyTrained, InvalidRequest (fewer than 2 classes).
  ServeStatus train(std::string* error = nullptr);

  /// Close the namespace for good. A retired tenant never enrolls or
  /// classifies again, so it becomes a tombstone: it keeps its name, state,
  /// tallies, feature width and class names, and frees its model (dataset,
  /// forest and drift monitor; OnlineFingerprinter::release_model), so a
  /// snapshot writes it at a size that does not grow with what it enrolled.
  /// Errors: TenantRetired (already closed).
  ServeStatus retire();

  /// Admission check for one classify request — state and payload only, no
  /// inference (the service coalesces the actual classification into one
  /// batched sweep). Errors: TenantRetired, NotTrained, InvalidRequest.
  ServeStatus admit_classify(const Request& request,
                             std::string* error = nullptr) const;

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const core::OnlineFingerprinter& fingerprinter() const {
    return fingerprinter_;
  }
  [[nodiscard]] std::uint64_t enrolled() const { return enrolled_; }
  [[nodiscard]] std::uint64_t classified() const { return classified_; }
  /// Tick-loop bookkeeping: classify sweeps bump this after scoring.
  void add_classified(std::uint64_t n) { classified_ += n; }

 private:
  std::string name_;
  State state_ = State::Enrolling;
  core::OnlineFingerprinter fingerprinter_;
  std::uint64_t enrolled_ = 0;
  std::uint64_t classified_ = 0;
};

std::string_view state_name(TenantSession::State state);

}  // namespace amperebleed::serve
