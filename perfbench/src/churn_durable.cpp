// churn_durable: control writes beside classify reads, with durability on
// (fsync per journal record, directory fsync on snapshot rename, a snapshot
// every 64 records). 64 classify clients ask 6 stable small-forest tenants
// (20 trees, 64 samples); 4 control clients each walk a fresh tenant
// through enroll x 9 -> train -> retire, then start the next. Control ops
// fence the coalescer into small sweeps, and retired tenants stay in every
// snapshot, so snapshots grow through the run. The primary operation is an
// acknowledged control op.

#include <algorithm>

#include "amperebleed/util/fs.hpp"
#include "amperebleed/util/rng.hpp"
#include "amperebleed/util/strings.hpp"
#include "serve_loop.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kStableTenants = 6;
constexpr std::size_t kStableClasses = 4;
constexpr std::size_t kEnrollPool = 6;
constexpr std::size_t kEnrollPerClass = 4;
constexpr std::size_t kProbesPerClass = 8;
constexpr std::size_t kSamples = 64;
constexpr std::size_t kTrees = 20;
constexpr std::size_t kClassifyClients = 64;
constexpr std::size_t kControlClients = 4;
// A churned tenant: kChurnClasses x kChurnPerClass enrolls, train, retire.
constexpr std::size_t kChurnClasses = 3;
constexpr std::size_t kChurnPerClass = 3;
constexpr std::size_t kChurnSteps = kChurnClasses * kChurnPerClass + 2;
constexpr int kSetups = 5;

/// One control client's walk through tenant lifecycles.
struct ControlClient {
  std::string tenant;
  std::uint64_t generation = 0;
  std::size_t step = 0;
};

struct PhaseStats {
  double wall_s = 0.0;
  // Control ops, as one window: snapshot stalls hit ~6% of them in bursts,
  // so a per-window p99 would flip between stalled and clean windows.
  OpStats ops{false};
  std::uint64_t verdicts = 0;
};

}  // namespace

Result run_churn_durable(const Options& options) {
  Result result;
  // Stable tenants serve four models their 64-sample, 20-tree forests tell
  // apart on every probe; churned tenants draw from the other eight.
  const std::vector<std::string> stable_models = {
      "Inception-V4", "ResNet-152", "VGG-11", "DenseNet-161"};
  std::vector<std::string> churn_models;
  for (const std::string& model : serve_models()) {
    if (std::find(stable_models.begin(), stable_models.end(), model) ==
        stable_models.end()) {
      churn_models.push_back(model);
    }
  }
  std::vector<std::string> tenants;
  for (std::size_t t = 0; t < kStableTenants; ++t) {
    tenants.push_back(ab::util::format("stable-%zu", t));
  }

  ScratchDir scratch(options.work_dir, "churn_durable");
  ab::serve::ServiceConfig config;
  config.fingerprinter.forest.n_trees = kTrees;
  config.durability.snapshot_every = 64;

  std::vector<std::vector<ab::core::Trace>> probes;
  std::vector<std::vector<ab::core::Trace>> churn_pool;
  std::unique_ptr<ab::serve::ClassificationService> service;
  int setup_index = 0;
  const auto setup = [&] {
    const auto pool = acquire_pool(stable_models, kEnrollPool, kSamples,
                                   ab::util::hash_combine(kFixtureSeed, 1));
    probes = acquire_pool(stable_models, kProbesPerClass, kSamples,
                          ab::util::hash_combine(kFixtureSeed, 2));
    churn_pool = acquire_pool(churn_models, kChurnPerClass, kSamples,
                              ab::util::hash_combine(kFixtureSeed, 4));
    service.reset();
    config.durability.dir =
        scratch.path() + "/service-" + std::to_string(setup_index++);
    service = std::make_unique<ab::serve::ClassificationService>(config);
    enroll_tenants(*service, tenants, stable_models, pool, kStableClasses,
                   kEnrollPerClass, result);
    check_probes(*service, tenants, probes, stable_models, result);
  };
  const double setup_s = median_setup_s(kSetups, setup);

  // One measured phase on the current service, from its freshly set-up
  // state: the traced half re-runs setup so that both halves start with
  // the same tenants and snapshot size.
  std::uint64_t mismatches = 0;
  ClassifyClients readers(kClassifyClients, tenants, probes, stable_models,
                          ab::util::hash_combine(options.seed, 3));
  const auto run_phase = [&](double seconds, bool traced,
                             ServeLayerTimes* times) {
    const std::string shadow = scratch.path() + "/shadow-" +
                               std::to_string(setup_index);
    ab::util::make_dirs(shadow);
    ServeLoop loop(*service, traced, shadow);
    std::vector<ControlClient> writers(kControlClients);
    const auto issue_control = [&](std::size_t w) {
      ControlClient& c = writers[w];
      const std::size_t client = kClassifyClients + w;
      if (c.step == 0) {
        c.tenant = ab::util::format(
            "churn-%zu-%llu", w, static_cast<unsigned long long>(c.generation));
      }
      ++result.attempted;
      bool accepted = false;
      if (c.step < kChurnClasses * kChurnPerClass) {
        const std::size_t i = c.step % kChurnClasses;
        const std::size_t e = c.step / kChurnClasses;
        const std::size_t m = (c.generation + w + i) % churn_models.size();
        accepted = loop.submit(client, ab::serve::RequestKind::Enroll,
                               c.tenant, &churn_pool[m][e], &churn_models[m]);
      } else if (c.step == kChurnSteps - 2) {
        accepted = loop.submit(client, ab::serve::RequestKind::Train, c.tenant,
                               nullptr);
      } else {
        accepted = loop.submit(client, ab::serve::RequestKind::Retire,
                               c.tenant, nullptr);
      }
      if (!accepted) {
        ++result.failed;
        result.fail("control op refused by admission control");
      }
    };
    const auto complete_control = [&](const Completion& done) {
      ControlClient& c = writers[done.client - kClassifyClients];
      if (!done.response->ok()) {
        ++result.failed;
        result.fail(std::string(kind_name(done.response->kind)) + " " +
                    c.tenant + ": " + done.response->error);
      }
      if (++c.step == kChurnSteps) {
        c.step = 0;
        ++c.generation;
      }
    };

    PhaseStats stats;
    Phase phase(options, seconds);
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < readers.size(); ++c) {
      readers.issue(loop, c, result);
    }
    for (std::size_t w = 0; w < writers.size(); ++w) issue_control(w);
    while (phase.next()) {
      const auto& completions = loop.tick();
      const double done_s = elapsed_s(t0);
      for (const Completion& done : completions) {
        if (done.client < kClassifyClients) {
          ++stats.verdicts;
          readers.complete(done, result);
          readers.issue(loop, done.client, result);
        } else {
          stats.ops.add(done_s, done.latency_us);
          complete_control(done);
          issue_control(done.client - kClassifyClients);
        }
      }
    }
    stats.wall_s = elapsed_s(t0);
    stats.ops.finish(stats.wall_s);
    loop.drain([&](const Completion& done) {
      if (done.client < kClassifyClients) {
        readers.complete(done, result);
      } else {
        complete_control(done);
      }
    });
    mismatches += loop.mismatches();
    if (times != nullptr) *times = loop.times();
    return stats;
  };

  if (!options.trace) {
    const PhaseStats plain = run_phase(options.seconds, false, nullptr);
    add_end_to_end(result, setup_s, plain.ops);
  } else {
    const PhaseStats plain = run_phase(options.seconds / 2.0, false, nullptr);
    setup();
    ServeLayerTimes times;
    const PhaseStats traced = run_phase(options.seconds / 2.0, true, &times);
    Layers layers;
    const double self_s = report_serve_layers(times, layers);
    const double timed_s = traced.wall_s - times.shadow_s;
    const auto stats = service->stats();
    layers.set("serve.classify_per_s",
               static_cast<double>(traced.verdicts) / timed_s);
    layers.set("serve.rejected", static_cast<double>(stats.rejected));
    layers.set("serve.sweeps", static_cast<double>(stats.sweeps));
    layers.set("serve.rows_per_sweep",
               static_cast<double>(stats.coalesced_rows) /
                   static_cast<double>(stats.sweeps));
    layers.set("persist.snapshots_written",
               static_cast<double>(service->storage().snapshots_written));
    set_trace_summary(
        layers, result,
        static_cast<double>(plain.ops.count()) / plain.wall_s,
        static_cast<double>(traced.ops.count()) / timed_s, self_s, timed_s);
    layers.emit(result);
  }
  if (mismatches != 0) {
    result.fail("replayed layer outputs differ from the service's");
  }
  const auto stats = service->stats();
  const auto storage = service->storage();
  if (storage.degraded || storage.journal_failures != 0 ||
      storage.snapshot_failures != 0) {
    result.fail("durable storage reported failures");
  }
  result.counts["scored"] = readers.scored;
  result.counts["correct"] = readers.correct;
  result.counts["sweeps"] = stats.sweeps;
  result.counts["journal_appends"] = storage.journal_appends;
  result.counts["snapshots_written"] = storage.snapshots_written;
  return result;
}

}  // namespace perfbench
