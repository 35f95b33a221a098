#include "amperebleed/serve/service.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "amperebleed/obs/obs.hpp"
#include "amperebleed/persist/journal.hpp"
#include "amperebleed/persist/store.hpp"
#include "amperebleed/util/parallel.hpp"

namespace amperebleed::serve {

namespace {

/// Consecutive journal-append failures before the service degrades to
/// read-only: control requests answer StorageUnavailable, classify keeps
/// serving. Restart (which re-runs recovery) is the only way back.
constexpr std::uint64_t kMaxConsecutiveJournalFailures = 3;

/// Virtual-latency bucket layout: powers of two from one tick upward, so an
/// SLO threshold of N default ticks is always an exact bucket bound.
obs::HistogramConfig latency_vus_buckets(sim::TimeNs tick) {
  const double start = tick.ns > 0 ? tick.micros() : 1000.0;
  auto config = obs::exponential_buckets(start, 2.0, 16);
  config.quantiles = {0.5, 0.9, 0.99};
  return config;
}

obs::HistogramConfig batch_rows_buckets() {
  auto config = obs::exponential_buckets(1.0, 2.0, 12);
  config.quantiles = {0.5, 0.9, 0.99};
  return config;
}

persist::JournalOp journal_op_of(RequestKind kind) {
  switch (kind) {
    case RequestKind::Enroll:
      return persist::JournalOp::Enroll;
    case RequestKind::Train:
      return persist::JournalOp::Train;
    case RequestKind::Retire:
      return persist::JournalOp::Retire;
    case RequestKind::Classify:
      break;  // never journalled
  }
  throw std::logic_error("journal_op_of: classify is not a control request");
}

RequestKind request_kind_of(persist::JournalOp op) {
  switch (op) {
    case persist::JournalOp::Enroll:
      return RequestKind::Enroll;
    case persist::JournalOp::Train:
      return RequestKind::Train;
    case persist::JournalOp::Retire:
      return RequestKind::Retire;
  }
  throw std::logic_error("request_kind_of: invalid journal op");
}

}  // namespace

ClassificationService::ClassificationService(ServiceConfig config)
    : config_(config),
      queue_(config.queue),
      latency_vus_(latency_vus_buckets(config.tick)),
      batch_rows_(batch_rows_buckets()) {
  if (config_.tick.ns <= 0) config_.tick = sim::milliseconds(1);
  if (obs::metrics_enabled()) {
    // Pin the exported histograms to the same bucket layout as the local
    // ones so SLO thresholds land on exact bucket bounds.
    obs::metrics().histogram("serve.request_latency_vus",
                             latency_vus_buckets(config_.tick));
    obs::metrics().histogram("serve.batch_rows", batch_rows_buckets());
  }
  if (!config_.durability.dir.empty()) {
    persist::TenantStore::Config store_config;
    store_config.dir = config_.durability.dir;
    store_config.snapshot_every = config_.durability.snapshot_every;
    store_ = std::make_unique<persist::TenantStore>(std::move(store_config));
    recover_from_store();
  }
}

ClassificationService::~ClassificationService() = default;

void ClassificationService::recover_from_store() {
  // The decoded snapshot is taken from the store and each tenant's model
  // state is moved, not copied, into its restored fingerprinter.
  if (std::optional<persist::ServiceSnapshot> snapshot =
          store_->take_snapshot()) {
    for (persist::TenantState& t : snapshot->tenants) {
      core::OnlineFingerprinter::RestoredState& model = t;
      const auto state = static_cast<TenantSession::State>(t.state);
      // A retired tenant comes back as the tombstone TenantSession::retire()
      // leaves, also from an older snapshot that still holds its model:
      // untrained, so restore starts no drift monitor either.
      if (state == TenantSession::State::Retired) {
        model.data = ml::Dataset(model.feature_count);
        model.arena = ml::ForestArena{};
        model.trained = false;
      }
      // CRC-valid but semantically inconsistent tenants are skipped — the
      // rest of the snapshot still recovers (replay handles any dangling
      // references with UnknownTenant).
      try {
        tenants_.emplace(
            t.name, std::make_unique<TenantSession>(
                        t.name, state, t.enrolled, t.classified,
                        core::OnlineFingerprinter::restore(
                            config_.fingerprinter, std::move(model))));
        tenant_order_.push_back(t.name);
      } catch (const std::invalid_argument&) {
        discarded_tenants_.push_back(t.name);
        obs::count("serve.storage.tenants_discarded");
      }
    }
  }
  // Replay the journal tail. apply_control is deterministic, so rerunning
  // each record — including ones that originally failed — reproduces the
  // exact pre-crash state; the responses were already delivered (or never
  // were, for the torn tail) and are discarded here. Records referencing a
  // tenant the snapshot carried but restore discarded are dropped, not
  // replayed: an Enroll would recreate the namespace empty, quietly
  // spreading the damage past the one discarded tenant.
  for (const persist::JournalRecord& record : store_->tail()) {
    if (std::find(discarded_tenants_.begin(), discarded_tenants_.end(),
                  record.tenant) != discarded_tenants_.end()) {
      ++replay_dropped_records_;
      obs::count("serve.storage.replay_dropped_records");
      continue;
    }
    Request request;
    request.kind = request_kind_of(record.op);
    request.tenant = record.tenant;
    request.label = record.label;
    if (record.has_trace) request.trace = persist::trace_from_record(record);
    (void)apply_control(request);
  }
  recovered_tenants_ = tenant_order_.size();

  const persist::RecoveryStats& recovery = store_->recovery();
  obs::gauge_set("serve.storage.degraded", 0.0);
  obs::gauge_set("serve.storage.last_seq",
                 static_cast<double>(store_->last_seq()));
  if (recovery.recovered_records > 0) {
    obs::count("serve.storage.recovered_records",
               recovery.recovered_records);
  }
  if (recovery.skipped_records > 0) {
    obs::count("serve.storage.skipped_records", recovery.skipped_records);
  }
  if (recovery.discarded_records > 0) {
    obs::count("serve.storage.discarded_records",
               recovery.discarded_records);
  }
  if (recovery.snapshots_discarded > 0) {
    obs::count("serve.storage.snapshots_discarded",
               recovery.snapshots_discarded);
  }
  if (recovery.recovered) obs::count("serve.storage.recoveries");
}

SubmitResult ClassificationService::submit(Request request) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  obs::count("serve.submitted");
  Pending pending;
  pending.request = std::move(request);
  pending.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  pending.admitted = sim::TimeNs{now_ns_.load(std::memory_order_relaxed)};
  const std::uint64_t id = pending.id;
  if (!queue_.try_push(std::move(pending))) {
    obs::count("serve.rejected");
    return SubmitResult{false, id, ServeStatus::Overloaded};
  }
  obs::count("serve.admitted");
  return SubmitResult{true, id, ServeStatus::Ok};
}

std::vector<Response> ClassificationService::tick() {
  std::vector<Pending> batch = queue_.drain(config_.max_batch);
  now_ns_.fetch_add(config_.tick.ns, std::memory_order_relaxed);
  ++ticks_;
  if (obs::metrics_enabled()) {
    // The SLO engine's burn windows run on the same virtual timeline as
    // request latencies: one tick of simulated service time per tick().
    obs::slos().advance(config_.tick.seconds());
    obs::gauge_set("serve.queue_depth",
                   static_cast<double>(queue_.depth()));
    obs::gauge_set("serve.tenants", static_cast<double>(tenants_.size()));
  }
  std::vector<Response> responses(batch.size());

  // Control requests execute in order and fence the coalescer; maximal runs
  // of classify requests between them score as single sweeps.
  std::size_t i = 0;
  while (i < batch.size()) {
    if (batch[i].request.kind == RequestKind::Classify) {
      std::size_t j = i;
      while (j < batch.size() &&
             batch[j].request.kind == RequestKind::Classify) {
        ++j;
      }
      sweep(batch, i, j, responses);
      i = j;
    } else {
      responses[i] = control(batch[i]);
      ++i;
    }
  }

  const sim::TimeNs now{now_ns_.load(std::memory_order_relaxed)};
  for (std::size_t k = 0; k < batch.size(); ++k) {
    Response& r = responses[k];
    r.id = batch[k].id;
    r.kind = batch[k].request.kind;
    r.tenant = std::move(batch[k].request.tenant);
    r.admitted = batch[k].admitted;
    r.completed = now;
    ++completed_;
    ++by_status_[static_cast<std::size_t>(r.status)];
    if (r.ok()) {
      if (r.kind == RequestKind::Classify) {
        ++classified_;
        if (!r.verdict.known) ++open_set_unknown_;
      }
    } else {
      ++failed_;
    }
    const double latency_vus = r.latency().micros();
    latency_vus_.observe(latency_vus);
    obs::observe("serve.request_latency_vus", latency_vus);
  }
  if (!batch.empty()) obs::count("serve.completed", batch.size());
  return responses;
}

std::vector<Response> ClassificationService::drain() {
  std::vector<Response> all;
  while (!queue_.empty()) {
    auto responses = tick();
    all.insert(all.end(), std::make_move_iterator(responses.begin()),
               std::make_move_iterator(responses.end()));
  }
  return all;
}

sim::TimeNs ClassificationService::now() const {
  return sim::TimeNs{now_ns_.load(std::memory_order_relaxed)};
}

ServiceStats ClassificationService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = queue_.accepted();
  s.rejected = queue_.rejected();
  s.completed = completed_;
  s.classified = classified_;
  s.open_set_unknown = open_set_unknown_;
  s.failed = failed_;
  s.ticks = ticks_;
  s.sweeps = sweeps_;
  s.coalesced_rows = coalesced_rows_;
  s.max_queue_depth = queue_.max_depth();
  s.by_status = by_status_;
  return s;
}

std::vector<std::string> ClassificationService::tenant_names() const {
  return tenant_order_;
}

const TenantSession* ClassificationService::tenant(
    const std::string& name) const {
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

TenantSession* ClassificationService::find_tenant(const std::string& name) {
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second.get();
}

void ClassificationService::sweep(std::vector<Pending>& batch,
                                  std::size_t begin, std::size_t end,
                                  std::vector<Response>& responses) {
  // Admission pass: validate every row sequentially, grouping the valid
  // ones per tenant in first-appearance order.
  std::vector<Group> groups;
  for (std::size_t k = begin; k < end; ++k) {
    Response& r = responses[k];
    TenantSession* tenant = find_tenant(batch[k].request.tenant);
    if (tenant == nullptr) {
      r.status = ServeStatus::UnknownTenant;
      r.error = "no such tenant '" + batch[k].request.tenant + "'";
      continue;
    }
    r.status = tenant->admit_classify(batch[k].request, &r.error);
    if (r.status != ServeStatus::Ok) continue;
    auto it = std::find_if(
        groups.begin(), groups.end(),
        [tenant](const Group& g) { return g.tenant == tenant; });
    if (it == groups.end()) {
      groups.push_back(Group{tenant, {}});
      it = std::prev(groups.end());
    }
    it->rows.push_back(k);
  }
  if (groups.empty()) return;

  // One classify_many arena pass per tenant, tenant groups sharded across
  // the thread pool. Verdicts land in pre-sized response slots, and
  // classify_many is bit-identical at any pool size, so the sweep is too.
  util::parallel_for(groups.size(), [&](std::size_t g) {
    const Group& group = groups[g];
    std::vector<const core::Trace*> rows;
    rows.reserve(group.rows.size());
    for (const std::size_t k : group.rows) {
      rows.push_back(&*batch[k].request.trace);
    }
    auto verdicts = group.tenant->fingerprinter().classify_many(rows);
    for (std::size_t j = 0; j < group.rows.size(); ++j) {
      responses[group.rows[j]].verdict = std::move(verdicts[j]);
    }
  });

  std::size_t scored = 0;
  for (Group& group : groups) {
    group.tenant->add_classified(group.rows.size());
    scored += group.rows.size();
  }
  ++sweeps_;
  coalesced_rows_ += scored;
  batch_rows_.observe(static_cast<double>(scored));
  obs::observe("serve.batch_rows", static_cast<double>(scored));
}

Response ClassificationService::control(Pending& pending) {
  const Request& request = pending.request;
  if (request.tenant.empty()) {
    Response r;
    r.status = ServeStatus::InvalidRequest;
    r.error = "request names no tenant";
    return r;
  }
  if (store_ != nullptr) {
    if (degraded_) {
      Response r;
      r.status = ServeStatus::StorageUnavailable;
      r.error = "durable storage degraded; control requests are read-only "
                "until restart";
      return r;
    }
    // WAL discipline: journal EVERY control request before applying it —
    // even ones that will fail. apply_control is a deterministic function
    // of (request, state), so replay reproduces failures (and their side
    // effects, e.g. the namespace an invalid enroll still created)
    // identically. On journal failure the request is NOT applied: durable
    // and in-memory state stay consistent.
    persist::JournalRecord record;
    record.seq = store_->last_seq() + 1;
    record.op = journal_op_of(request.kind);
    record.tenant = request.tenant;
    record.label = request.label;
    if (request.trace.has_value()) {
      persist::record_set_trace(record, *request.trace);
    }
    try {
      store_->append(record);
      ++journal_appends_;
      consecutive_journal_failures_ = 0;
      obs::count("serve.storage.journal_appends");
      obs::gauge_set("serve.storage.last_seq",
                     static_cast<double>(store_->last_seq()));
    } catch (const persist::IoError& e) {
      ++journal_failures_;
      ++consecutive_journal_failures_;
      obs::count("serve.storage.journal_failures");
      if (consecutive_journal_failures_ >= kMaxConsecutiveJournalFailures) {
        degraded_ = true;
        obs::gauge_set("serve.storage.degraded", 1.0);
        obs::count("serve.storage.degradations");
      }
      Response r;
      r.status = ServeStatus::StorageUnavailable;
      r.error = std::string("journal write failed: ") + e.what();
      return r;
    }
  }
  Response r = apply_control(request);
  if (store_ != nullptr) maybe_snapshot();
  return r;
}

Response ClassificationService::apply_control(const Request& request) {
  Response r;
  TenantSession* tenant = find_tenant(request.tenant);
  switch (request.kind) {
    case RequestKind::Enroll: {
      if (!request.trace.has_value() || request.trace->empty()) {
        r.status = ServeStatus::InvalidRequest;
        r.error = "enroll needs a non-empty trace";
        return r;
      }
      if (tenant == nullptr) {
        // First enroll opens the namespace.
        auto session = std::make_unique<TenantSession>(
            request.tenant, config_.fingerprinter);
        tenant = session.get();
        tenants_.emplace(request.tenant, std::move(session));
        tenant_order_.push_back(request.tenant);
        obs::count("serve.tenants_created");
      }
      r.status = tenant->enroll(*request.trace, request.label, &r.error);
      return r;
    }
    case RequestKind::Train: {
      if (tenant == nullptr) {
        r.status = ServeStatus::UnknownTenant;
        r.error = "no such tenant '" + request.tenant + "'";
        return r;
      }
      r.status = tenant->train(&r.error);
      return r;
    }
    case RequestKind::Retire: {
      if (tenant == nullptr) {
        r.status = ServeStatus::UnknownTenant;
        r.error = "no such tenant '" + request.tenant + "'";
        return r;
      }
      r.status = tenant->retire();
      if (r.status == ServeStatus::TenantRetired) {
        r.error = "tenant '" + request.tenant + "' already retired";
      }
      return r;
    }
    case RequestKind::Classify:
      break;  // unreachable: tick() routes classify runs through sweep()
  }
  r.status = ServeStatus::InvalidRequest;
  r.error = "unhandled request kind";
  return r;
}

bool ClassificationService::write_snapshot_guarded() {
  // The snapshot encodes straight from the live tenants, borrowed in place.
  std::vector<persist::TenantView> views;
  views.reserve(tenant_order_.size());
  for (const std::string& name : tenant_order_) {
    const TenantSession& session = *tenants_.at(name);
    const core::OnlineFingerprinter& fp = session.fingerprinter();
    persist::TenantView& view = views.emplace_back();
    view.name = name;
    view.state = static_cast<std::uint8_t>(session.state());
    view.enrolled = session.enrolled();
    view.classified = session.classified();
    view.feature_count = fp.feature_count();
    view.class_names = &fp.class_names();
    view.data = &fp.enrollment_data();
    if (fp.trained()) view.arena = &fp.forest().arena();
  }
  try {
    store_->write_snapshot(store_->last_seq(), views);
  } catch (const persist::IoError&) {
    // The journal still holds every record, so durability is intact; the
    // snapshot retries once the journal grows past the threshold again.
    ++snapshot_failures_;
    obs::count("serve.storage.snapshot_failures");
    return false;
  }
  ++snapshots_written_;
  obs::count("serve.storage.snapshots_written");
  return true;
}

void ClassificationService::maybe_snapshot() {
  if (store_ == nullptr || degraded_) return;
  if (store_->records_since_snapshot() < store_->snapshot_every()) return;
  (void)write_snapshot_guarded();
}

bool ClassificationService::snapshot_now() {
  if (store_ == nullptr || degraded_) return false;
  if (store_->records_since_snapshot() == 0) return false;  // nothing new
  return write_snapshot_guarded();
}

StorageStats ClassificationService::storage() const {
  StorageStats s;
  if (store_ == nullptr) return s;
  s.enabled = true;
  s.degraded = degraded_;
  s.last_seq = store_->last_seq();
  s.journal_appends = journal_appends_;
  s.journal_failures = journal_failures_;
  s.snapshots_written = snapshots_written_;
  s.snapshot_failures = snapshot_failures_;
  const persist::RecoveryStats& recovery = store_->recovery();
  s.recovered = recovery.recovered;
  s.snapshot_seq = recovery.snapshot_seq;
  s.snapshots_discarded = recovery.snapshots_discarded;
  s.recovered_records = recovery.recovered_records;
  s.skipped_records = recovery.skipped_records;
  s.discarded_records = recovery.discarded_records;
  s.recovered_tenants = recovered_tenants_;
  s.discarded_tenants = discarded_tenants_;
  s.replay_dropped_records = replay_dropped_records_;
  return s;
}

void ClassificationService::register_default_slo(double threshold_vus,
                                                 double target) {
  obs::slos().add({.name = "serve_latency",
                   .histogram = "serve.request_latency_vus",
                   .threshold = threshold_vus,
                   .target = target});
}

}  // namespace amperebleed::serve
