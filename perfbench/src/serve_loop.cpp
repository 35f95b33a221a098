#include "serve_loop.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>

#include "amperebleed/persist/state.hpp"
#include "amperebleed/util/fs.hpp"
#include "amperebleed/util/parallel.hpp"
#include "amperebleed/util/rng.hpp"

namespace perfbench {

namespace {

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double sum(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

ab::persist::JournalOp journal_op(ab::serve::RequestKind kind) {
  switch (kind) {
    case ab::serve::RequestKind::Enroll:
      return ab::persist::JournalOp::Enroll;
    case ab::serve::RequestKind::Train:
      return ab::persist::JournalOp::Train;
    default:
      return ab::persist::JournalOp::Retire;
  }
}

/// The snapshot file in `dir`: the store prunes all but the newest one
/// right after writing it.
std::string snapshot_file(const std::string& dir) {
  for (const std::string& name : ab::util::list_dir(dir)) {
    if (name.rfind("snapshot-", 0) == 0) return dir + "/" + name;
  }
  throw std::runtime_error("no snapshot in " + dir);
}

}  // namespace

ServeLoop::ServeLoop(ab::serve::ClassificationService& service, bool traced,
                     const std::string& shadow_dir)
    : service_(service),
      traced_(traced),
      shadow_dir_(shadow_dir),
      snapshots_seen_(service.storage().snapshots_written) {}

bool ServeLoop::submit(std::size_t client, ab::serve::RequestKind kind,
                       const std::string& tenant,
                       const ab::core::Trace* trace,
                       const std::string* label) {
  Pending pending;
  pending.client = client;
  pending.kind = kind;
  pending.tenant = &tenant;
  pending.trace = trace;
  pending.label = label;
  pending.submitted = Clock::now();
  ab::serve::Request request;
  request.kind = kind;
  request.tenant = tenant;
  if (label != nullptr) request.label = *label;
  if (trace != nullptr) request.trace = *trace;
  const auto result = service_.submit(std::move(request));
  pending.submit_returned = Clock::now();
  if (traced_) {
    const double us = micros(pending.submit_returned - pending.submitted);
    times_.submit_ns.push_back(us * 1000.0);
    submit_since_s_ += us * 1e-6;
  }
  if (!result.accepted) return false;
  pending.id = result.id;
  in_flight_.push_back(std::move(pending));
  return true;
}

const std::vector<Completion>& ServeLoop::tick() {
  const auto f0 = Clock::now();
  if (traced_ && last_return_ != Clock::time_point{}) {
    times_.client_s +=
        std::chrono::duration<double>(f0 - last_return_).count() -
        submit_since_s_;
  }
  submit_since_s_ = 0.0;
  responses_.clear();
  const auto t0 = Clock::now();
  responses_ = service_.tick();
  const auto t1 = Clock::now();

  done_.clear();
  batch_.clear();
  for (const ab::serve::Response& response : responses_) {
    // Responses come back in admission order: always the oldest in flight.
    if (head_ == in_flight_.size() || in_flight_[head_].id != response.id) {
      throw std::logic_error("response out of admission order");
    }
    const Pending& pending = in_flight_[head_++];
    done_.push_back(
        Completion{pending.client, &response, micros(t1 - pending.submitted)});
    if (traced_) {
      times_.queue_wait_us.push_back(micros(t0 - pending.submit_returned));
      batch_.push_back(pending);
    }
  }
  if (head_ == in_flight_.size()) {
    in_flight_.clear();
    head_ = 0;
  }

  if (traced_) {
    times_.tick_us.push_back(micros(t1 - t0));
    times_.response_free_s += std::chrono::duration<double>(t0 - f0).count();
    const auto s0 = Clock::now();
    shadow_sweeps(batch_);
    for (std::size_t k = 0; k < batch_.size(); ++k) {
      if (batch_[k].kind != ab::serve::RequestKind::Classify) {
        shadow_control(batch_[k], responses_[k]);
      }
    }
    shadow_snapshot();
    last_return_ = Clock::now();
    times_.shadow_s += std::chrono::duration<double>(last_return_ - s0).count();
  }
  return done_;
}

void ServeLoop::shadow_sweeps(const std::vector<Pending>& batch) {
  struct Group {
    const ab::serve::TenantSession* tenant = nullptr;
    std::vector<std::size_t> rows;
  };
  const std::size_t n_trees = service_.config().fingerprinter.forest.n_trees;
  std::size_t i = 0;
  while (i < batch.size()) {
    if (batch[i].kind != ab::serve::RequestKind::Classify) {
      ++i;
      continue;
    }
    // A maximal classify run between control fences is one sweep: rows
    // grouped per tenant in first-appearance order, as the service does.
    std::size_t j = i;
    std::vector<Group> groups;
    for (; j < batch.size() &&
           batch[j].kind == ab::serve::RequestKind::Classify;
         ++j) {
      if (!responses_[j].ok()) continue;
      const auto* tenant = service_.tenant(*batch[j].tenant);
      auto it = std::find_if(
          groups.begin(), groups.end(),
          [&](const Group& g) { return g.tenant == tenant; });
      if (it == groups.end()) {
        groups.push_back(Group{tenant, {}});
        it = std::prev(groups.end());
      }
      it->rows.push_back(j);
    }
    i = j;
    if (groups.empty()) continue;

    std::vector<std::vector<ab::core::OnlineFingerprinter::Verdict>> verdicts(
        groups.size());
    const auto c0 = Clock::now();
    ab::util::parallel_for(groups.size(), [&](std::size_t g) {
      std::vector<const ab::core::Trace*> rows;
      rows.reserve(groups[g].rows.size());
      for (const std::size_t k : groups[g].rows) rows.push_back(batch[k].trace);
      verdicts[g] = groups[g].tenant->fingerprinter().classify_many(rows);
    });
    times_.classify_many_s += elapsed_s(c0);

    // Feature rows are built outside the timer: predict_proba_many alone.
    std::vector<std::vector<std::vector<double>>> features(groups.size());
    std::vector<std::vector<std::span<const double>>> spans(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const auto& fp = groups[g].tenant->fingerprinter();
      for (const std::size_t k : groups[g].rows) {
        features[g].push_back(batch[k].trace->prefix(fp.feature_count()));
      }
      for (const auto& row : features[g]) spans[g].emplace_back(row);
    }
    std::vector<std::vector<std::vector<double>>> proba(groups.size());
    const auto p0 = Clock::now();
    ab::util::parallel_for(groups.size(), [&](std::size_t g) {
      proba[g] = groups[g].tenant->fingerprinter().forest().predict_proba_many(
          spans[g]);
    });
    times_.predict_s += elapsed_s(p0);

    for (std::size_t g = 0; g < groups.size(); ++g) {
      times_.predict_row_trees +=
          static_cast<double>(groups[g].rows.size() * n_trees);
      for (std::size_t r = 0; r < groups[g].rows.size(); ++r) {
        const auto& served = responses_[groups[g].rows[r]].verdict;
        if (served.model_name != verdicts[g][r].model_name ||
            served.confidence != verdicts[g][r].confidence ||
            proba[g][r].empty() ||
            *std::max_element(proba[g][r].begin(), proba[g][r].end()) !=
                served.confidence) {
          ++mismatches_;
        }
      }
    }
  }
}

void ServeLoop::shadow_control(const Pending& pending,
                               const ab::serve::Response& response) {
  if (!shadow_dir_.empty()) {
    if (!shadow_journal_) {
      shadow_journal_ = std::make_unique<ab::persist::JournalWriter>(
          shadow_dir_ + "/journal.bin", 0);
    }
    ab::persist::JournalRecord record;
    record.seq = ++shadow_seq_;
    record.op = journal_op(pending.kind);
    record.tenant = *pending.tenant;
    if (pending.label != nullptr) record.label = *pending.label;
    if (pending.trace != nullptr) {
      ab::persist::record_set_trace(record, *pending.trace);
    }
    const auto a0 = Clock::now();
    shadow_journal_->append(record);
    times_.journal_append_us.push_back(elapsed_us(a0));
    // Frame = length + CRC words around the payload.
    times_.persisted_bytes +=
        static_cast<double>(ab::persist::encode_record(record).size() + 8);
    times_.user_bytes += static_cast<double>(
        pending.tenant->size() +
        (pending.label != nullptr ? pending.label->size() : 0) +
        (pending.trace != nullptr ? pending.trace->size() * sizeof(double)
                                  : 0));
  }
  if (pending.kind == ab::serve::RequestKind::Train && response.ok()) {
    const auto& fp = service_.tenant(*pending.tenant)->fingerprinter();
    ab::ml::RandomForest forest(service_.config().fingerprinter.forest);
    const auto f0 = Clock::now();
    forest.fit(fp.enrollment_data());
    times_.fit_ms.push_back(elapsed_ms(f0));
    if (forest.arena().node_count() != fp.forest().arena().node_count()) {
      ++mismatches_;
    }
  }
}

void ServeLoop::shadow_snapshot() {
  if (shadow_dir_.empty()) return;
  const std::uint64_t written = service_.storage().snapshots_written;
  if (written == snapshots_seen_) return;
  snapshots_seen_ = written;
  const std::string path = snapshot_file(service_.config().durability.dir);
  const std::string bytes = ab::util::read_file(path);
  const ab::persist::ServiceSnapshot snap =
      ab::persist::decode_snapshot(bytes, path);
  const auto e0 = Clock::now();
  const std::string encoded = ab::persist::encode_snapshot(snap);
  times_.snapshot_encode_ms.push_back(elapsed_ms(e0));
  if (encoded != bytes) ++mismatches_;  // the codec round trip is exact
  const auto w0 = Clock::now();
  ab::util::atomic_write_file(shadow_dir_ + "/snapshot.bin", encoded);
  shadow_journal_->reset();
  times_.snapshot_write_ms.push_back(elapsed_ms(w0));
  times_.snapshot_bytes.push_back(static_cast<double>(encoded.size()));
  times_.persisted_bytes += static_cast<double>(encoded.size());
}

void enroll_tenants(ab::serve::ClassificationService& service,
                    const std::vector<std::string>& tenants,
                    const std::vector<std::string>& models,
                    const std::vector<std::vector<ab::core::Trace>>& pool,
                    std::size_t classes_per_tenant, std::size_t per_class,
                    Result& result) {
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    for (std::size_t e = 0; e < per_class; ++e) {
      for (std::size_t i = 0; i < classes_per_tenant; ++i) {
        const std::size_t m = (t + i) % models.size();
        ab::serve::Request request;
        request.kind = ab::serve::RequestKind::Enroll;
        request.tenant = tenants[t];
        request.label = models[m];
        request.trace = pool[m][(t + e) % pool[m].size()];
        service.submit(std::move(request));
      }
    }
    ab::serve::Request train;
    train.kind = ab::serve::RequestKind::Train;
    train.tenant = tenants[t];
    service.submit(std::move(train));
    for (const ab::serve::Response& response : service.drain()) {
      if (!response.ok()) {
        result.fail("setup: " + std::string(kind_name(response.kind)) + " " +
                    response.tenant + ": " + response.error);
      }
    }
  }
}

void check_probes(const ab::serve::ClassificationService& service,
                  const std::vector<std::string>& tenants,
                  const std::vector<std::vector<ab::core::Trace>>& probes,
                  const std::vector<std::string>& models, Result& result) {
  for (const std::string& name : tenants) {
    const auto& fp = service.tenant(name)->fingerprinter();
    for (std::size_t m = 0; m < probes.size(); ++m) {
      for (const auto& verdict : fp.classify_many(probes[m])) {
        if (!verdict.known || verdict.model_name != models[m]) {
          result.fail("setup: " + name + " misclassifies a probe of " +
                      models[m]);
        }
      }
    }
  }
}

ClassifyClients::ClassifyClients(
    std::size_t n, const std::vector<std::string>& tenants,
    const std::vector<std::vector<ab::core::Trace>>& probes,
    const std::vector<std::string>& models, std::uint64_t seed)
    : tenants_(tenants), probes_(probes), models_(models), truth_(n, 0) {
  ab::util::Rng rng(seed);
  schedule_.resize(std::size_t{1} << 16);
  for (Draw& draw : schedule_) {
    draw.tenant = static_cast<std::uint16_t>(rng.uniform_below(tenants.size()));
    draw.model = static_cast<std::uint16_t>(rng.uniform_below(probes.size()));
    draw.probe = static_cast<std::uint16_t>(
        rng.uniform_below(probes[draw.model].size()));
  }
}

void ClassifyClients::issue(ServeLoop& loop, std::size_t client,
                            Result& result) {
  const Draw draw = schedule_[next_++ & (schedule_.size() - 1)];
  truth_[client] = draw.model;
  ++result.attempted;
  if (!loop.submit(client, ab::serve::RequestKind::Classify,
                   tenants_[draw.tenant], &probes_[draw.model][draw.probe])) {
    ++result.failed;
    result.fail("classify refused by admission control");
  }
}

void ClassifyClients::complete(const Completion& done, Result& result) {
  const ab::serve::Response& r = *done.response;
  if (!r.ok()) {
    ++result.failed;
    result.fail("classify " + r.tenant + ": " + r.error);
    return;
  }
  ++scored;
  if (r.verdict.known && r.verdict.model_name == models_[truth_[done.client]]) {
    ++correct;
  } else {
    ++result.failed;
    result.fail("classify " + r.tenant + ": verdict " + r.verdict.model_name +
                (r.verdict.known ? "" : " (unknown)") + " for a trace of " +
                models_[truth_[done.client]]);
  }
}

double report_serve_layers(const ServeLayerTimes& t, Layers& layers) {
  const double submit_s = sum(t.submit_ns) * 1e-9;
  const double tick_s = sum(t.tick_us) * 1e-6;
  const double journal_s = sum(t.journal_append_us) * 1e-6;
  const double snapshot_s =
      (sum(t.snapshot_encode_ms) + sum(t.snapshot_write_ms)) * 1e-3;
  const double fit_s = sum(t.fit_ms) * 1e-3;
  layers.set("serve.submit_ns_p50", percentile(t.submit_ns, 50.0));
  layers.set("serve.submit_busy_s", submit_s);
  layers.set("serve.queue_wait_us_p50", percentile(t.queue_wait_us, 50.0));
  layers.set("serve.queue_wait_us_p99", percentile(t.queue_wait_us, 99.0));
  layers.set("serve.tick_us_p50", percentile(t.tick_us, 50.0));
  layers.set("serve.tick_us_p99", percentile(t.tick_us, 99.0));
  layers.set("serve.self_s", tick_s + t.response_free_s - t.classify_many_s -
                                 journal_s - snapshot_s - fit_s);
  layers.set("core.classify_many_busy_s", t.classify_many_s);
  layers.set("core.verdict_self_s", t.classify_many_s - t.predict_s);
  layers.set("ml.predict_busy_s", t.predict_s);
  layers.set("ml.predict_ns_per_row_tree",
             t.predict_row_trees > 0.0 ? t.predict_s * 1e9 / t.predict_row_trees
                                       : 0.0);
  layers.set("ml.fit_ms_p50", percentile(t.fit_ms, 50.0));
  layers.set("ml.fit_count", static_cast<double>(t.fit_ms.size()));
  layers.set("persist.journal_append_us_p50",
             percentile(t.journal_append_us, 50.0));
  layers.set("persist.journal_append_us_p99",
             percentile(t.journal_append_us, 99.0));
  layers.set("persist.snapshot_encode_ms",
             percentile(t.snapshot_encode_ms, 50.0));
  layers.set("persist.snapshot_write_ms",
             percentile(t.snapshot_write_ms, 50.0));
  layers.set("persist.snapshot_bytes", percentile(t.snapshot_bytes, 50.0));
  layers.set("persist.bytes_written_per_user_byte",
             t.user_bytes > 0.0 ? t.persisted_bytes / t.user_bytes : 0.0);
  layers.set("client.self_s", t.client_s);
  // Self times partition client + submit + tick exactly (serve.self is the
  // rest of the tick once every replayed layer is taken out).
  return t.client_s + submit_s + tick_s + t.response_free_s;
}

}  // namespace perfbench
