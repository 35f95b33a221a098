#include "amperebleed/serve/tenant.hpp"

#include <stdexcept>
#include <utility>

namespace amperebleed::serve {

namespace {

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

}  // namespace

TenantSession::TenantSession(std::string name,
                             core::OnlineFingerprinterConfig config)
    : name_(std::move(name)), fingerprinter_(config) {}

TenantSession::TenantSession(std::string name, State state,
                             std::uint64_t enrolled, std::uint64_t classified,
                             core::OnlineFingerprinter fingerprinter)
    : name_(std::move(name)),
      state_(state),
      fingerprinter_(std::move(fingerprinter)),
      enrolled_(enrolled),
      classified_(classified) {}

ServeStatus TenantSession::enroll(const core::Trace& trace,
                                  const std::string& label,
                                  std::string* error) {
  if (state_ == State::Retired) {
    set_error(error, "tenant '" + name_ + "' is retired");
    return ServeStatus::TenantRetired;
  }
  if (state_ == State::Serving) {
    set_error(error, "tenant '" + name_ + "' already trained");
    return ServeStatus::AlreadyTrained;
  }
  if (label.empty()) {
    set_error(error, "enroll needs a model label");
    return ServeStatus::InvalidRequest;
  }
  try {
    fingerprinter_.enroll(trace, label);
  } catch (const std::exception& e) {
    set_error(error, e.what());
    return ServeStatus::InvalidRequest;
  }
  ++enrolled_;
  return ServeStatus::Ok;
}

ServeStatus TenantSession::train(std::string* error) {
  if (state_ == State::Retired) {
    set_error(error, "tenant '" + name_ + "' is retired");
    return ServeStatus::TenantRetired;
  }
  if (state_ == State::Serving) {
    set_error(error, "tenant '" + name_ + "' already trained");
    return ServeStatus::AlreadyTrained;
  }
  try {
    fingerprinter_.train();
  } catch (const std::exception& e) {
    set_error(error, e.what());
    return ServeStatus::InvalidRequest;
  }
  state_ = State::Serving;
  return ServeStatus::Ok;
}

ServeStatus TenantSession::retire() {
  if (state_ == State::Retired) return ServeStatus::TenantRetired;
  state_ = State::Retired;
  fingerprinter_.release_model();
  return ServeStatus::Ok;
}

ServeStatus TenantSession::admit_classify(const Request& request,
                                          std::string* error) const {
  if (state_ == State::Retired) {
    set_error(error, "tenant '" + name_ + "' is retired");
    return ServeStatus::TenantRetired;
  }
  if (state_ != State::Serving) {
    set_error(error, "tenant '" + name_ + "' is not trained yet");
    return ServeStatus::NotTrained;
  }
  if (!request.trace.has_value() || request.trace->empty()) {
    set_error(error, "classify needs a non-empty trace");
    return ServeStatus::InvalidRequest;
  }
  if (request.trace->size() < fingerprinter_.feature_count()) {
    set_error(error, "trace shorter than the enrolled feature width");
    return ServeStatus::InvalidRequest;
  }
  return ServeStatus::Ok;
}

std::string_view state_name(TenantSession::State state) {
  switch (state) {
    case TenantSession::State::Enrolling:
      return "enrolling";
    case TenantSession::State::Serving:
      return "serving";
    case TenantSession::State::Retired:
      return "retired";
  }
  return "?";
}

}  // namespace amperebleed::serve
