// classify_steady: read-only classify traffic through serve on paper-scale
// tenants. 8 tenants x 12 zoo classes, 100 trees at depth 32, 143-sample
// (5 s at 35 ms) FPGA-current traces. A closed loop of 256 clients
// (= max_batch) keeps admission control idle, so every tick drains the
// whole queue into one coalesced sweep. All tenants share one trace pool,
// acquired once per setup.

#include "amperebleed/util/rng.hpp"
#include "amperebleed/util/strings.hpp"
#include "serve_loop.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kTenants = 8;
constexpr std::size_t kEnrollPool = 10;  // traces per class in the pool
constexpr std::size_t kEnrollPerClass = 8;
constexpr std::size_t kProbesPerClass = 8;
constexpr std::size_t kSamples = 143;
constexpr std::size_t kTrees = 100;
constexpr std::size_t kClients = 256;
constexpr int kSetups = 3;

struct PhaseStats {
  double wall_s = 0.0;
  OpStats ops;
};

}  // namespace

Result run_classify_steady(const Options& options) {
  Result result;
  const std::vector<std::string>& models = serve_models();
  std::vector<std::string> tenants;
  for (std::size_t t = 0; t < kTenants; ++t) {
    tenants.push_back(ab::util::format("tenant-%zu", t));
  }
  ab::serve::ServiceConfig config;
  config.max_batch = kClients;
  config.fingerprinter.forest.n_trees = kTrees;

  std::vector<std::vector<ab::core::Trace>> probes;
  std::unique_ptr<ab::serve::ClassificationService> service;
  const double setup_s = median_setup_s(kSetups, [&] {
    service.reset();  // one service alive at a time keeps peak RSS honest
    const auto pool = acquire_pool(models, kEnrollPool, kSamples,
                                   ab::util::hash_combine(kFixtureSeed, 1));
    probes = acquire_pool(models, kProbesPerClass, kSamples,
                          ab::util::hash_combine(kFixtureSeed, 2));
    service = std::make_unique<ab::serve::ClassificationService>(config);
    enroll_tenants(*service, tenants, models, pool, models.size(),
                   kEnrollPerClass, result);
  });
  check_probes(*service, tenants, probes, models, result);

  ServeLoop loop(*service, false);
  ClassifyClients clients(kClients, tenants, probes, models,
                          ab::util::hash_combine(options.seed, 3));
  const auto run_phase = [&](double seconds) {
    PhaseStats stats;
    Phase phase(options, seconds);
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < clients.size(); ++c) {
      clients.issue(loop, c, result);
    }
    while (phase.next()) {
      const auto& completions = loop.tick();
      const double done_s = elapsed_s(t0);
      for (const Completion& done : completions) {
        stats.ops.add(done_s, done.latency_us);
        clients.complete(done, result);
        clients.issue(loop, done.client, result);
      }
    }
    stats.wall_s = elapsed_s(t0);
    stats.ops.finish(stats.wall_s);
    loop.drain([&](const Completion& done) { clients.complete(done, result); });
    return stats;
  };

  if (!options.trace) {
    const PhaseStats plain = run_phase(options.seconds);
    add_end_to_end(result, setup_s, plain.ops);
  } else {
    const PhaseStats plain = run_phase(options.seconds / 2.0);
    loop.set_traced(true);
    const PhaseStats traced = run_phase(options.seconds / 2.0);
    Layers layers;
    const double self_s = report_serve_layers(loop.times(), layers);
    const double timed_s = traced.wall_s - loop.times().shadow_s;
    const auto stats = service->stats();
    layers.set("serve.classify_per_s",
               static_cast<double>(traced.ops.count()) / timed_s);
    layers.set("serve.rejected", static_cast<double>(stats.rejected));
    layers.set("serve.sweeps", static_cast<double>(stats.sweeps));
    layers.set("serve.rows_per_sweep",
               static_cast<double>(stats.coalesced_rows) /
                   static_cast<double>(stats.sweeps));
    set_trace_summary(
        layers, result,
        static_cast<double>(plain.ops.count()) / plain.wall_s,
        static_cast<double>(traced.ops.count()) / timed_s, self_s, timed_s);
    layers.emit(result);
  }
  if (loop.mismatches() != 0) {
    result.fail("sweep verdicts differ from classify_many");
  }
  const auto stats = service->stats();
  result.counts["scored"] = clients.scored;
  result.counts["correct"] = clients.correct;
  result.counts["sweeps"] = stats.sweeps;
  result.counts["rejected"] = stats.rejected;
  return result;
}

}  // namespace perfbench
