#pragma once
// amperebleed::serve — the multi-tenant asynchronous classification service
// composing the pieces built across PRs 1-7: OnlineFingerprinter's batched
// classify_many, the flat SoA ForestArena kernel, util::ThreadPool, and the
// obs metrics/SLO/HTTP stack.
//
// Shape: producers submit() typed Requests into a bounded queue (admission
// control rejects past the high-water mark with a typed Overloaded status);
// the owner's tick() loop advances the service's VIRTUAL clock one tick at a
// time, draining up to max_batch queued requests per tick. Consecutive
// classify requests in a drained batch — regardless of tenant — coalesce
// into one sweep: rows are grouped per tenant and the tenant groups are
// sharded across the thread pool, each scoring its rows through a single
// classify_many arena pass. Control requests (enroll/train/retire) execute
// in submission order and act as sweep barriers, so the observable behaviour
// is exactly that of processing the queue sequentially.
//
// Determinism: verdicts, response order, queue admission, and every virtual
// latency are bit-identical at any thread-pool size — classify_many is
// bit-identical by contract, tenant groups land in pre-sized slots, and all
// timestamps come from the tick clock, never the host clock. The closed-loop
// bench (bench/service_load) byte-diffs its stdout at pool sizes 1/4/8 in CI
// on exactly this promise.
//
// Threading: submit() is safe from any thread; tick()/drain() must be called
// by one owner thread at a time (the queue is the only shared state between
// the two sides). Classification against Serving tenants runs concurrently
// on pool workers; tenant lifecycle mutations happen only on the tick
// thread.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "amperebleed/core/online.hpp"
#include "amperebleed/obs/metrics.hpp"
#include "amperebleed/serve/queue.hpp"
#include "amperebleed/serve/tenant.hpp"
#include "amperebleed/serve/types.hpp"
#include "amperebleed/sim/time.hpp"

namespace amperebleed::persist {
struct JournalRecord;
class TenantStore;
}  // namespace amperebleed::persist

namespace amperebleed::serve {

/// Durable tenant state (DESIGN.md §15). With a non-empty `dir` the service
/// write-ahead-journals EVERY control request (enroll/train/retire) before
/// applying it and periodically folds the journal into an atomic-rename
/// snapshot. Constructing a service on an existing directory IS recovery:
/// load the newest valid snapshot, replay the journal tail, and resume with
/// bit-identical classify behaviour. Classify requests are never journalled
/// (they do not change durable state; per-tenant classified tallies are
/// restored as of the snapshot — observability, not correctness).
struct DurabilityConfig {
  /// Storage directory; empty = durability off (the default, zero cost).
  std::string dir;
  /// Journal records between automatic snapshots.
  std::uint64_t snapshot_every = 64;
};

struct ServiceConfig {
  RequestQueue::Config queue{};
  /// Coalescer drain limit: at most this many requests leave the queue per
  /// tick (0 = unbounded, the whole queue every tick).
  std::size_t max_batch = 256;
  /// Virtual duration of one tick — the coalescing window. Latencies are
  /// integer multiples of this.
  sim::TimeNs tick = sim::milliseconds(1);
  /// Applied to every tenant namespace created by its first Enroll.
  core::OnlineFingerprinterConfig fingerprinter{};
  /// Checkpoint/WAL persistence (off unless dir is set).
  DurabilityConfig durability{};
};

/// Lifetime tallies, all monotonic. Door-side numbers (submitted/admitted/
/// rejected) are exact under concurrent submitters; the rest are owned by
/// the tick thread.
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;  // Overloaded at admission control
  std::uint64_t completed = 0;
  std::uint64_t classified = 0;         // Classify responses with status Ok
  std::uint64_t open_set_unknown = 0;   // of those, rejected as outside zoo
  std::uint64_t failed = 0;             // non-Ok responses
  std::uint64_t ticks = 0;
  std::uint64_t sweeps = 0;             // coalesced classify_many passes
  std::uint64_t coalesced_rows = 0;     // rows scored through sweeps
  std::size_t max_queue_depth = 0;
  /// Responses per ServeStatus, indexed by the enum's ordinal.
  std::array<std::uint64_t, kServeStatusCount> by_status{};
};

/// Durability-layer tallies (all zero with durability off). The recovery
/// numbers account for every journal record the store found on disk:
/// recovered (replayed) + skipped (already in the snapshot) + discarded
/// (torn/corrupt) covers them all.
struct StorageStats {
  bool enabled = false;
  bool degraded = false;
  std::uint64_t last_seq = 0;
  std::uint64_t journal_appends = 0;
  std::uint64_t journal_failures = 0;
  std::uint64_t snapshots_written = 0;
  std::uint64_t snapshot_failures = 0;
  // Recovery (what construction found in the directory).
  bool recovered = false;
  std::uint64_t snapshot_seq = 0;
  std::uint64_t snapshots_discarded = 0;
  std::uint64_t recovered_records = 0;
  std::uint64_t skipped_records = 0;
  std::uint64_t discarded_records = 0;
  std::uint64_t recovered_tenants = 0;
  /// Snapshot tenants whose restore failed semantic validation, by name,
  /// so an operator can see exactly which namespaces recovery dropped —
  /// not just a count.
  std::vector<std::string> discarded_tenants;
  /// Journal-tail records referencing a discarded tenant. They are dropped
  /// rather than replayed: replaying (e.g. an Enroll) would recreate the
  /// namespace empty and the recovered state would silently diverge beyond
  /// the one discarded tenant.
  std::uint64_t replay_dropped_records = 0;
};

class ClassificationService {
 public:
  /// With config.durability.dir set, construction recovers from the
  /// directory (snapshot load + journal replay). Corrupted content on disk
  /// is discarded and counted, never fatal; an unusable directory throws
  /// persist::IoError.
  explicit ClassificationService(ServiceConfig config = {});
  ~ClassificationService();

  /// Hand one request to the service (any thread). Admission control may
  /// reject with Overloaded; rejected requests never produce a Response.
  SubmitResult submit(Request request);

  /// Advance one virtual tick: drain up to max_batch requests, run control
  /// requests in order, coalesce classify runs into per-tenant arena sweeps
  /// sharded across the thread pool. Returns the completed responses in
  /// admission order (empty when the queue was idle). Owner thread only.
  std::vector<Response> tick();

  /// Tick until the queue is empty; all responses, in admission order.
  std::vector<Response> drain();

  /// The virtual clock (ticks elapsed x tick duration).
  [[nodiscard]] sim::TimeNs now() const;

  [[nodiscard]] ServiceStats stats() const;
  /// Durability tallies (enabled == false with durability off).
  [[nodiscard]] StorageStats storage() const;
  /// True once persistent journal failures degraded the service to
  /// read-only (control requests answer StorageUnavailable).
  [[nodiscard]] bool degraded() const { return degraded_; }
  /// Force a snapshot now (durable mode only). Returns true when written;
  /// false with durability off, in Degraded mode, or on an IO failure
  /// (counted in storage().snapshot_failures). Owner thread only.
  bool snapshot_now();
  [[nodiscard]] const ServiceConfig& config() const { return config_; }
  [[nodiscard]] std::size_t queue_depth() const { return queue_.depth(); }

  /// Virtual request latency (microseconds of virtual time), P2 quantiles
  /// at 0.5 / 0.9 / 0.99. Deterministic: same request schedule, same
  /// estimates, any pool size.
  [[nodiscard]] const obs::Histogram& latency_histogram() const {
    return latency_vus_;
  }
  /// Valid rows per coalesced sweep — the throughput shape of the batcher.
  [[nodiscard]] const obs::Histogram& batch_histogram() const {
    return batch_rows_;
  }

  /// Tenant namespaces in creation order.
  [[nodiscard]] std::vector<std::string> tenant_names() const;
  /// Lookup (nullptr when the namespace does not exist). The pointer stays
  /// valid for the service's lifetime — namespaces are never erased, a
  /// retired tenant keeps its name reserved.
  [[nodiscard]] const TenantSession* tenant(const std::string& name) const;

  /// Register the service's default latency SLO (virtual-time request
  /// latency over the serve.request_latency_vus histogram) on the global
  /// obs::slos() registry — served live on /slo by the HTTP exporter.
  /// `threshold_vus` must be one of the histogram's bucket bounds to count
  /// exactly; the default is 16 default ticks.
  static void register_default_slo(double threshold_vus = 16000.0,
                                   double target = 0.95);

 private:
  struct Group {
    TenantSession* tenant = nullptr;
    std::vector<std::size_t> rows;  // indices into the drained batch
  };

  [[nodiscard]] TenantSession* find_tenant(const std::string& name);
  /// Coalesce batch[begin, end) — all Classify — into per-tenant sweeps.
  void sweep(std::vector<Pending>& batch, std::size_t begin, std::size_t end,
             std::vector<Response>& responses);
  /// WAL wrapper: journal the request (durable mode), then apply_control.
  [[nodiscard]] Response control(Pending& pending);
  /// Apply one control request to in-memory state. Deterministic function
  /// of (request, state) — journal replay reruns it to reach the identical
  /// post-crash state, responses discarded.
  [[nodiscard]] Response apply_control(const Request& request);
  /// Rebuild tenants from the store's snapshot and replay its journal tail.
  void recover_from_store();
  /// Write a snapshot when the journal grew past durability.snapshot_every.
  void maybe_snapshot();
  bool write_snapshot_guarded();

  ServiceConfig config_;
  RequestQueue queue_;
  std::map<std::string, std::unique_ptr<TenantSession>> tenants_;
  std::vector<std::string> tenant_order_;
  std::atomic<std::int64_t> now_ns_{0};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> submitted_{0};

  // Tick-thread bookkeeping.
  std::uint64_t completed_ = 0;
  std::uint64_t classified_ = 0;
  std::uint64_t open_set_unknown_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t sweeps_ = 0;
  std::uint64_t coalesced_rows_ = 0;
  std::array<std::uint64_t, kServeStatusCount> by_status_{};

  // Durability (null with durability off). All touched on the tick thread.
  std::unique_ptr<persist::TenantStore> store_;
  bool degraded_ = false;
  std::uint64_t consecutive_journal_failures_ = 0;
  std::uint64_t journal_appends_ = 0;
  std::uint64_t journal_failures_ = 0;
  std::uint64_t snapshots_written_ = 0;
  std::uint64_t snapshot_failures_ = 0;
  std::uint64_t recovered_tenants_ = 0;
  std::vector<std::string> discarded_tenants_;
  std::uint64_t replay_dropped_records_ = 0;

  obs::Histogram latency_vus_;
  obs::Histogram batch_rows_;
};

}  // namespace amperebleed::serve
