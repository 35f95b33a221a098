#pragma once
// Closed-loop client driver for the serve workloads. One owner thread plays
// every logical client: each client submits one request, waits for its
// response, and only then submits the next, because tick() is an
// owner-thread API. The thread pool works inside tick() (tenant groups of a
// coalesced sweep run in parallel). The request schedule is a pure function
// of the workload's seed, so every count is identical at any pool size.
//
// Traced mode times the serve layer around submit() and tick(), then
// replays each tick's inner work on the same inputs to split the tick into
// layers: the coalesced classify sweeps (classify_many, and within it
// predict_proba_many), and for durable services the journal append of each
// control op, the forest fit of each Train, and the snapshot codec and
// write whenever the service wrote a snapshot. The replays also check that
// the sweep's verdicts equal classify_many's.

#include <memory>
#include <string>
#include <vector>

#include "amperebleed/persist/journal.hpp"
#include "common.hpp"

namespace perfbench {

/// One completed request. `response` points into the loop and stays valid
/// until the next tick().
struct Completion {
  std::size_t client = 0;
  const ab::serve::Response* response = nullptr;
  double latency_us = 0.0;  // submit() call to tick() return
};

/// Per-layer accumulators of the traced phase.
struct ServeLayerTimes {
  std::vector<double> submit_ns;
  std::vector<double> queue_wait_us;
  std::vector<double> tick_us;
  /// Destroying the previous tick's responses: part of the serve layer's
  /// cost (Response carries strings and the full verdict ranking by value).
  double response_free_s = 0.0;
  /// The load generator's own time between ticks, outside submit(): drawing
  /// requests, checking verdicts, recording latencies.
  double client_s = 0.0;
  double classify_many_s = 0.0;
  double predict_s = 0.0;
  double predict_row_trees = 0.0;
  std::vector<double> fit_ms;
  std::vector<double> journal_append_us;
  std::vector<double> snapshot_encode_ms;
  std::vector<double> snapshot_write_ms;
  std::vector<double> snapshot_bytes;
  double persisted_bytes = 0.0;
  double user_bytes = 0.0;
  double shadow_s = 0.0;  // replay time, excluded from the timed wall
};

class ServeLoop {
 public:
  /// `shadow_dir` (traced durable runs only) receives the replayed journal
  /// and snapshots.
  ServeLoop(ab::serve::ClassificationService& service, bool traced,
            const std::string& shadow_dir = "");

  /// Submit one request for `client`. `tenant`, `trace` and `label` are
  /// the caller's and must outlive the response; the service gets its own
  /// copies, as a real client would send them. Returns false when
  /// admission control refused.
  bool submit(std::size_t client, ab::serve::RequestKind kind,
              const std::string& tenant, const ab::core::Trace* trace,
              const std::string* label = nullptr);

  /// One tick; the completed requests in admission order.
  const std::vector<Completion>& tick();

  /// Tick until nothing is in flight, untraced (the end of a measured
  /// phase), handing each completion to `handle`.
  template <typename Fn>
  void drain(Fn&& handle) {
    const bool traced = traced_;
    traced_ = false;
    while (head_ != in_flight_.size()) {
      for (const Completion& done : tick()) handle(done);
    }
    traced_ = traced;
  }

  /// Failed internal checks (sweep verdict != classify_many verdict).
  [[nodiscard]] std::uint64_t mismatches() const { return mismatches_; }
  [[nodiscard]] const ServeLayerTimes& times() const { return times_; }
  void set_traced(bool traced) { traced_ = traced; }

 private:
  struct Pending {
    std::uint64_t id = 0;
    std::size_t client = 0;
    ab::serve::RequestKind kind = ab::serve::RequestKind::Classify;
    const std::string* tenant = nullptr;
    const ab::core::Trace* trace = nullptr;
    const std::string* label = nullptr;
    Clock::time_point submitted;
    Clock::time_point submit_returned;
  };

  void shadow_sweeps(const std::vector<Pending>& batch);
  void shadow_control(const Pending& pending,
                      const ab::serve::Response& response);
  void shadow_snapshot();

  ab::serve::ClassificationService& service_;
  bool traced_;
  std::string shadow_dir_;
  std::unique_ptr<ab::persist::JournalWriter> shadow_journal_;
  std::uint64_t shadow_seq_ = 0;
  std::uint64_t snapshots_seen_ = 0;
  /// Admitted requests in admission order; [head_, size) are in flight.
  std::vector<Pending> in_flight_;
  std::size_t head_ = 0;
  std::vector<ab::serve::Response> responses_;
  std::vector<Completion> done_;
  std::vector<Pending> batch_;  // traced: this tick's requests, for replay
  // Traced: when the last tick() returned, and submit() time since then.
  Clock::time_point last_return_;
  double submit_since_s_ = 0.0;
  std::uint64_t mismatches_ = 0;
  ServeLayerTimes times_;
};

/// Enroll `per_class` traces of `classes_per_tenant` models into every
/// tenant, then train each. Tenant t enrolls models (t + i) % models and
/// traces (t + e) % pool, so tenants differ. Every response must be Ok.
void enroll_tenants(ab::serve::ClassificationService& service,
                    const std::vector<std::string>& tenants,
                    const std::vector<std::string>& models,
                    const std::vector<std::vector<ab::core::Trace>>& pool,
                    std::size_t classes_per_tenant, std::size_t per_class,
                    Result& result);

/// Setup check: every tenant's verdict on every probe names the probe's
/// model, so any request the load can draw has a checkable answer.
void check_probes(const ab::serve::ClassificationService& service,
                  const std::vector<std::string>& tenants,
                  const std::vector<std::vector<ab::core::Trace>>& probes,
                  const std::vector<std::string>& models, Result& result);

/// The classify side of a closed loop: clients [0, n), each asking a random
/// tenant about a random probe and checking that the verdict names the
/// probe's model.
class ClassifyClients {
 public:
  ClassifyClients(std::size_t n, const std::vector<std::string>& tenants,
                  const std::vector<std::vector<ab::core::Trace>>& probes,
                  const std::vector<std::string>& models, std::uint64_t seed);

  [[nodiscard]] std::size_t size() const { return truth_.size(); }
  void issue(ServeLoop& loop, std::size_t client, Result& result);
  void complete(const Completion& done, Result& result);

  std::uint64_t scored = 0;
  std::uint64_t correct = 0;

 private:
  /// One drawn request: tenant, model and probe indices.
  struct Draw {
    std::uint16_t tenant = 0;
    std::uint16_t model = 0;
    std::uint16_t probe = 0;
  };

  const std::vector<std::string>& tenants_;
  const std::vector<std::vector<ab::core::Trace>>& probes_;
  const std::vector<std::string>& models_;
  /// The request stream, drawn from the seed up front and cycled, so the
  /// load generator does no random draws inside the timed loop.
  std::vector<Draw> schedule_;
  std::size_t next_ = 0;
  std::vector<std::size_t> truth_;  // model index of each client's request
};

/// Fill the serve/core/ml/persist layer metrics from a traced phase, and
/// return the summed layer self time.
double report_serve_layers(const ServeLayerTimes& t, Layers& layers);

}  // namespace perfbench
