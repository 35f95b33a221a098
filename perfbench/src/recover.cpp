// recover: crash to recovered service. Setup builds a crash directory: a
// snapshot holding 200 tenants (20 trees, 64 samples, 3 classes x 3 traces
// each, from the fixed fixture), then a journal tail of 62 acknowledged
// records (6 new tenants enrolled and trained, 2 old ones, drawn from the
// seed, retired) that ends in a torn frame: the
// 63rd append is killed halfway by faults::storage_points_arm_crash. Each
// timed recovery constructs ClassificationService on a fresh, untimed copy
// of that directory; the verdict probe (every ranking probability at %.17g)
// must then be byte-identical to the pre-crash probe. The primary operation
// is one recovery; replay re-fits the forests of the journalled Trains.

#include <filesystem>

#include "amperebleed/faults/faults.hpp"
#include "amperebleed/persist/store.hpp"
#include "amperebleed/util/fs.hpp"
#include "amperebleed/util/rng.hpp"
#include "amperebleed/util/strings.hpp"
#include "serve_loop.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kSnapshotTenants = 200;
constexpr std::size_t kTailTenants = 6;
constexpr std::size_t kTailRetires = 2;
constexpr std::size_t kClassesPerTenant = 3;
constexpr std::size_t kPerClass = 3;
constexpr std::size_t kPoolPerModel = 4;
constexpr std::size_t kSamples = 64;
constexpr std::size_t kTrees = 20;
constexpr int kSetups = 5;
// Acknowledged tail records: enrolls + a train per new tenant, and retires.
constexpr std::uint64_t kTailRecords =
    kTailTenants * (kClassesPerTenant * kPerClass + 1) + kTailRetires;

/// The service's durable state as a snapshot, built from its public
/// accessors (the same fields ClassificationService checkpoints).
ab::persist::ServiceSnapshot snapshot_of(
    const ab::serve::ClassificationService& service, std::uint64_t last_seq) {
  ab::persist::ServiceSnapshot snap;
  snap.last_seq = last_seq;
  for (const std::string& name : service.tenant_names()) {
    const ab::serve::TenantSession& session = *service.tenant(name);
    const ab::core::OnlineFingerprinter& fp = session.fingerprinter();
    ab::persist::TenantState t;
    t.name = name;
    t.state = static_cast<std::uint8_t>(session.state());
    t.enrolled = session.enrolled();
    t.classified = session.classified();
    t.feature_count = fp.feature_count();
    t.class_names = fp.class_names();
    t.data = fp.enrollment_data();
    t.trained = fp.trained();
    if (t.trained) t.arena = fp.forest().arena();
    snap.tenants.push_back(std::move(t));
  }
  return snap;
}

/// A fresh recovery directory `to` holding `from`'s files. Recovery only
/// reads the snapshot, so it is hard-linked; the journal, which recovery
/// truncates, is copied. (Copying the 3 MB snapshot for every recovery
/// wrote ~200 MB/s to disk next to the timed constructor.)
void stage_recovery_dir(const std::string& from, const std::string& to) {
  namespace fs = std::filesystem;
  fs::create_directory(to);
  for (const auto& entry : fs::directory_iterator(from)) {
    const fs::path target = fs::path(to) / entry.path().filename();
    if (entry.path().filename() == "journal.bin") {
      fs::copy_file(entry.path(), target);
    } else {
      fs::create_hard_link(entry.path(), target);
    }
  }
}

struct CrashFixture {
  std::string dir;
  std::string probe;  // verdict probe of the last acknowledged state
  std::vector<ab::core::Trace> probes;
  std::vector<std::string> trained_in_tail;
};

/// Build the crash directory in `dir` (must not exist yet).
CrashFixture build_crash_dir(const std::string& dir,
                             const ab::serve::ServiceConfig& base_config,
                             std::uint64_t seed, Result& result) {
  const std::vector<std::string>& models = serve_models();
  const auto pool = acquire_pool(models, kPoolPerModel, kSamples,
                                 ab::util::hash_combine(kFixtureSeed, 1));
  CrashFixture fixture;
  fixture.dir = dir;
  for (const auto& traces : pool) fixture.probes.push_back(traces.back());

  // The snapshot's 200 tenants go through a service without durability
  // (no per-record fsync), then land on disk through the persist API.
  std::vector<std::string> old_tenants;
  for (std::size_t t = 0; t < kSnapshotTenants; ++t) {
    old_tenants.push_back(ab::util::format("tenant-%03zu", t));
  }
  ab::serve::ServiceConfig config = base_config;
  config.durability.dir.clear();
  ab::serve::ClassificationService staging(config);
  enroll_tenants(staging, old_tenants, models, pool, kClassesPerTenant,
                 kPerClass, result);
  const std::uint64_t snapshot_seq =
      kSnapshotTenants * (kClassesPerTenant * kPerClass + 1);
  {
    ab::persist::TenantStore store({dir, config.durability.snapshot_every});
    store.write_snapshot(snapshot_of(staging, snapshot_seq));
  }

  config.durability.dir = dir;
  auto service = std::make_unique<ab::serve::ClassificationService>(config);
  if (verdict_probe(*service, fixture.probes) !=
      verdict_probe(staging, fixture.probes)) {
    result.fail("setup: snapshot round trip changed a verdict");
  }
  std::vector<std::string> new_tenants;
  for (std::size_t t = 0; t < kTailTenants; ++t) {
    new_tenants.push_back(ab::util::format("tail-%zu", t));
  }
  enroll_tenants(*service, new_tenants, models, pool, kClassesPerTenant,
                 kPerClass, result);
  fixture.trained_in_tail = new_tenants;
  ab::util::Rng rng(seed);
  for (std::size_t r = 0; r < kTailRetires; ++r) {
    ab::serve::Request retire;
    retire.kind = ab::serve::RequestKind::Retire;
    // One pick from each half of the snapshot's tenants: never the same.
    constexpr std::size_t kHalf = kSnapshotTenants / kTailRetires;
    retire.tenant = old_tenants[r * kHalf + rng.uniform_below(kHalf)];
    service->submit(std::move(retire));
  }
  for (const auto& response : service->drain()) {
    if (!response.ok()) result.fail("setup: retire " + response.tenant);
  }
  fixture.probe = verdict_probe(*service, fixture.probes);

  // Crossing 1 of the next append is its IO decision site, crossing 2 the
  // half-written frame: the crash leaves a torn record behind.
  ab::faults::storage_points_reset();
  ab::faults::storage_points_arm_crash(2);
  ab::serve::Request doomed;
  doomed.kind = ab::serve::RequestKind::Enroll;
  doomed.tenant = "torn";
  doomed.label = models.front();
  doomed.trace = pool.front().front();
  service->submit(std::move(doomed));
  bool crashed = false;
  try {
    (void)service->tick();
  } catch (const ab::faults::SimulatedCrash&) {
    crashed = true;
  }
  ab::faults::storage_points_reset();
  if (!crashed) result.fail("setup: the armed crash did not fire");
  return fixture;
}

struct RecoveryTimes {
  std::vector<double> store_open_ms;
  std::vector<double> decode_ms;
  std::vector<double> scan_ms;
  std::vector<double> replay_ms;
  std::vector<double> fit_ms;
};

}  // namespace

Result run_recover(const Options& options) {
  Result result;
  ScratchDir scratch(options.work_dir, "recover");
  ab::serve::ServiceConfig config;
  config.fingerprinter.forest.n_trees = kTrees;
  config.durability.snapshot_every = 64;

  CrashFixture fixture;
  int setup_index = 0;
  const double setup_s = median_setup_s(kSetups, [&] {
    fixture = build_crash_dir(
        scratch.path() + "/crash-" + std::to_string(setup_index++), config,
        options.seed, result);
  });

  std::uint64_t copies = 0;
  const auto fresh_copy = [&] {
    const std::string dir =
        scratch.path() + "/copy-" + std::to_string(copies++);
    stage_recovery_dir(fixture.dir, dir);
    return dir;
  };
  const auto remove_dir = [](const std::string& dir) {
    std::filesystem::remove_all(dir);
  };

  std::uint64_t recovered_records = 0;
  std::uint64_t discarded_records = 0;
  // One phase of timed recoveries; the traced phase replays the store open,
  // snapshot decode, journal scan and tail fits on a second copy.
  const auto run_phase = [&](double seconds, RecoveryTimes* traced) {
    OpStats ops;
    double timed_s = 0.0;
    Phase phase(options, seconds);
    while (phase.next()) {
      const std::string dir = fresh_copy();
      ab::serve::ServiceConfig recover_config = config;
      recover_config.durability.dir = dir;
      ++result.attempted;
      const auto t0 = Clock::now();
      ab::serve::ClassificationService service(recover_config);
      const double us = elapsed_us(t0);
      timed_s += us * 1e-6;
      ops.add(timed_s, us);

      const auto storage = service.storage();
      recovered_records = storage.recovered_records;
      discarded_records = storage.discarded_records;
      if (storage.recovered_records != kTailRecords ||
          storage.discarded_records != 1 ||
          verdict_probe(service, fixture.probes) != fixture.probe) {
        ++result.failed;
        result.fail("recovery " + std::to_string(copies) +
                    ": state differs from the pre-crash state");
      }
      if (traced != nullptr) {
        const std::string twin = fresh_copy();
        const auto s0 = Clock::now();
        ab::persist::TenantStore store(
            {twin, config.durability.snapshot_every});
        const double open_ms = elapsed_ms(s0);
        traced->store_open_ms.push_back(open_ms);
        traced->replay_ms.push_back(us / 1000.0 - open_ms);
        const std::string snap_path =
            fixture.dir + "/snapshot-" +
            std::to_string(store.snapshot()->last_seq) + ".bin";
        const std::string snap_bytes = ab::util::read_file(snap_path);
        const auto d0 = Clock::now();
        (void)ab::persist::decode_snapshot(snap_bytes, snap_path);
        traced->decode_ms.push_back(elapsed_ms(d0));
        const std::string journal_path = fixture.dir + "/journal.bin";
        const std::string journal_bytes = ab::util::read_file(journal_path);
        const auto j0 = Clock::now();
        const auto scan =
            ab::persist::scan_journal(journal_bytes, journal_path);
        traced->scan_ms.push_back(elapsed_ms(j0));
        if (scan.records.size() != kTailRecords) {
          result.fail("journal scan found " +
                      std::to_string(scan.records.size()) + " records");
        }
        for (const std::string& name : fixture.trained_in_tail) {
          ab::ml::RandomForest forest(config.fingerprinter.forest);
          const auto f0 = Clock::now();
          forest.fit(service.tenant(name)->fingerprinter().enrollment_data());
          traced->fit_ms.push_back(elapsed_ms(f0));
        }
        remove_dir(twin);
      }
      remove_dir(dir);
    }
    ops.finish(timed_s);
    return std::make_pair(ops, timed_s);
  };

  if (!options.trace) {
    const auto [ops, timed_s] = run_phase(options.seconds, nullptr);
    // Throughput counts recoveries per second of recovery work: the copies
    // and probes around each one are fixture, not product.
    add_end_to_end(result, setup_s, ops);
  } else {
    const double half = options.seconds / 2.0;
    const auto [plain_ops, plain_s] = run_phase(half, nullptr);
    RecoveryTimes times;
    const auto [traced_ops, traced_s] = run_phase(half, &times);
    Layers layers;
    layers.set("persist.store_open_ms",
               percentile(times.store_open_ms, 50.0));
    layers.set("persist.snapshot_decode_ms",
               percentile(times.decode_ms, 50.0));
    layers.set("persist.journal_scan_ms", percentile(times.scan_ms, 50.0));
    layers.set("serve.replay_ms", percentile(times.replay_ms, 50.0));
    layers.set("ml.fit_ms_p50", percentile(times.fit_ms, 50.0));
    layers.set("ml.fit_count", static_cast<double>(times.fit_ms.size()));
    layers.set("persist.tail_records", static_cast<double>(recovered_records));
    layers.set("persist.discarded_records",
               static_cast<double>(discarded_records));
    // Store open + replay partition each constructor call exactly, so the
    // layers cover the whole timed wall by construction.
    set_trace_summary(layers, result,
                      static_cast<double>(plain_ops.count()) / plain_s,
                      static_cast<double>(traced_ops.count()) / traced_s,
                      traced_s, traced_s);
    layers.emit(result);
  }
  result.counts["recovered_records"] = recovered_records;
  result.counts["discarded_records"] = discarded_records;
  return result;
}

}  // namespace perfbench
