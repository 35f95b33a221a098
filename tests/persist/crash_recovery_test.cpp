// Crash-recovery harness (DESIGN.md §15): kill the service at EVERY storage
// kill-point, recover from the directory it left behind, and assert the
// recovered service's classify behaviour is BIT-identical to an
// uninterrupted run — at thread-pool sizes 1, 4 and 8. The schedule varies
// with AMPEREBLEED_FAULT_SEED, so the CI matrix sweeps three different
// workloads through every crash point.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "amperebleed/faults/faults.hpp"
#include "amperebleed/obs/drift.hpp"
#include "amperebleed/persist/state.hpp"
#include "amperebleed/serve/service.hpp"
#include "amperebleed/util/fs.hpp"
#include "amperebleed/util/rng.hpp"
#include "amperebleed/util/thread_pool.hpp"
#include "support/legacy_snapshot.hpp"

namespace amperebleed::serve {
namespace {

core::Trace make_trace(int cls, std::uint64_t seed, std::size_t len = 24) {
  util::Rng rng(seed);
  core::Trace t({}, sim::TimeNs{0}, sim::milliseconds(35));
  for (std::size_t i = 0; i < len; ++i) {
    t.push(100.0 * cls + rng.gaussian(0.0, 2.0));
  }
  return t;
}

Request enroll_request(const std::string& tenant, int cls,
                       std::uint64_t seed) {
  Request r;
  r.kind = RequestKind::Enroll;
  r.tenant = tenant;
  r.label = "net-" + std::to_string(cls);
  r.trace = make_trace(cls, seed);
  return r;
}

Request control_request(RequestKind kind, const std::string& tenant) {
  Request r;
  r.kind = kind;
  r.tenant = tenant;
  return r;
}

Request classify_request(const std::string& tenant, int cls,
                         std::uint64_t seed) {
  Request r;
  r.kind = RequestKind::Classify;
  r.tenant = tenant;
  r.trace = make_trace(cls, seed);
  return r;
}

/// The first 14 control requests of make_script: two tenants through full
/// lifecycles, one short-lived retiree, plus control requests that FAIL (an
/// enroll without a label, a train on a retired tenant) — those are
/// journalled too, and replay must reproduce their side effects (the
/// namespace the invalid enroll opened) exactly.
std::vector<Request> lifecycle_script(std::uint64_t seed) {
  std::vector<Request> script;
  for (int cls = 0; cls < 2; ++cls) {
    for (std::uint64_t rep = 0; rep < 2; ++rep) {
      script.push_back(enroll_request("alpha", cls, seed + 10 * cls + rep));
    }
  }
  script.push_back(control_request(RequestKind::Train, "alpha"));
  script.push_back(classify_request("alpha", 0, seed + 100));
  script.push_back(classify_request("alpha", 1, seed + 101));
  Request unlabeled;  // journalled, then fails with InvalidRequest —
  unlabeled.kind = RequestKind::Enroll;  // but still opens the namespace
  unlabeled.tenant = "limbo";
  unlabeled.trace = make_trace(0, seed + 200);
  script.push_back(unlabeled);
  for (int cls = 0; cls < 2; ++cls) {
    for (std::uint64_t rep = 0; rep < 2; ++rep) {
      script.push_back(enroll_request("beta", cls, seed + 20 * cls + rep + 1));
    }
  }
  script.push_back(control_request(RequestKind::Train, "beta"));
  script.push_back(classify_request("beta", 1, seed + 102));
  script.push_back(enroll_request("gamma", 0, seed + 300));
  script.push_back(control_request(RequestKind::Retire, "gamma"));
  script.push_back(control_request(RequestKind::Train, "gamma"));  // fails
  return script;
}

/// The deterministic workload: lifecycle_script, then a tenant that trains
/// and retires (25 control requests in all). At snapshot_every=5 the
/// snapshot at seq 20 holds epsilon trained, its Retire (seq 21) replays
/// over it, and the snapshot at seq 25 holds its tombstone, so the
/// kill-point sweep crosses both.
std::vector<Request> make_script(std::uint64_t seed) {
  std::vector<Request> script = lifecycle_script(seed);
  // Three enrolls of class 0 and two of class 1 put the Train at seq 20.
  for (int cls = 0; cls < 2; ++cls) {
    for (std::uint64_t rep = 0; rep < 3 - static_cast<std::uint64_t>(cls);
         ++rep) {
      script.push_back(
          enroll_request("epsilon", cls, seed + 40 * cls + rep + 2));
    }
  }
  script.push_back(control_request(RequestKind::Train, "epsilon"));
  script.push_back(classify_request("epsilon", 1, seed + 103));
  script.push_back(control_request(RequestKind::Retire, "epsilon"));
  // Against the tombstone: each of these fails, and each is journalled.
  script.push_back(enroll_request("epsilon", 0, seed + 500));
  script.push_back(control_request(RequestKind::Train, "epsilon"));
  script.push_back(control_request(RequestKind::Retire, "epsilon"));
  script.push_back(enroll_request("epsilon", 1, seed + 501));
  return script;
}

ServiceConfig durable_config(const std::string& dir,
                             std::uint64_t snapshot_every = 5,
                             bool drift = false) {
  ServiceConfig config;
  config.fingerprinter.forest.n_trees = 8;
  config.fingerprinter.drift.enabled = drift;
  config.durability.dir = dir;
  config.durability.snapshot_every = snapshot_every;
  return config;
}

void run_script(ClassificationService& service,
                const std::vector<Request>& script) {
  for (const Request& request : script) {
    ASSERT_TRUE(service.submit(request).accepted);
    (void)service.drain();
  }
}

/// Deterministic fingerprint of all recovery-relevant state: tenant
/// lifecycle + enrollment tallies + the model each tenant holds (dataset
/// rows and forest nodes: none for a tombstone) + full classify verdicts
/// (every ranking probability at %.17g, so any bit difference shows).
/// Classified tallies are deliberately excluded — classifies are not
/// journalled.
std::string probe(const ClassificationService& service, std::uint64_t seed) {
  std::string out;
  char buf[96];
  for (const std::string& name : service.tenant_names()) {
    const TenantSession* tenant = service.tenant(name);
    const core::OnlineFingerprinter& fp = tenant->fingerprinter();
    out += name;
    out += '|';
    out += state_name(tenant->state());
    std::snprintf(buf, sizeof(buf), "|e=%llu|c=%zu|rows=%zu|nodes=%zu\n",
                  static_cast<unsigned long long>(tenant->enrolled()),
                  fp.class_names().size(), fp.enrollment_data().size(),
                  fp.forest().arena().node_count());
    out += buf;
    if (tenant->state() != TenantSession::State::Serving) continue;
    for (int cls = 0; cls < 2; ++cls) {
      const auto verdict =
          tenant->fingerprinter().classify(make_trace(cls, seed + 900 + cls));
      out += "  " + verdict.model_name + (verdict.known ? "+" : "-");
      const auto& names = tenant->fingerprinter().class_names();
      for (const auto& [label, proba] : verdict.ranking) {
        std::snprintf(buf, sizeof(buf), " %s=%.17g",
                      names[static_cast<std::size_t>(label)].c_str(), proba);
        out += buf;
      }
      out += '\n';
    }
  }
  return out;
}

/// Every tenant's drift reference, by name; only tenants with a monitor
/// (trained, drift enabled) appear.
std::vector<std::pair<std::string, obs::ReferenceProfile>> drift_references(
    const ClassificationService& service) {
  std::vector<std::pair<std::string, obs::ReferenceProfile>> out;
  for (const std::string& name : service.tenant_names()) {
    const obs::DriftMonitor* monitor =
        service.tenant(name)->fingerprinter().drift_monitor();
    if (monitor != nullptr) out.emplace_back(name, monitor->reference());
  }
  return out;
}

std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "crash_recovery_" + tag;
  if (util::path_exists(dir)) {
    for (const std::string& name : util::list_dir(dir)) {
      util::remove_file(dir + "/" + name);
    }
  }
  return dir;
}

/// The newest snapshot file in `dir` ("" when there is none).
std::string newest_snapshot(const std::string& dir) {
  std::string snap_name;
  for (const std::string& name : util::list_dir(dir)) {
    if (name.rfind("snapshot-", 0) == 0) snap_name = name;
  }
  return snap_name;
}

/// Runs lifecycle_script with snapshot_every=12, so the snapshot lands right
/// after gamma's enroll (seq 12) and leaves gamma's Retire and failing Train
/// in the journal tail, then rewrites that snapshot with `doctor` applied to
/// tenant `name`. The rewritten file decodes (valid CRCs), so only
/// OnlineFingerprinter::restore's semantic validation can refuse the tenant.
void run_and_doctor_snapshot(
    const std::string& dir, const std::string& name,
    const std::function<void(persist::TenantState&)>& doctor) {
  {
    ClassificationService service(durable_config(dir, 12));
    run_script(service,
               lifecycle_script(faults::FaultPlan::seed_from_env()));
  }
  const std::string snap_name = newest_snapshot(dir);
  ASSERT_FALSE(snap_name.empty());
  persist::ServiceSnapshot snap = persist::decode_snapshot(
      util::read_file(dir + "/" + snap_name), snap_name);
  bool doctored = false;
  for (persist::TenantState& t : snap.tenants) {
    if (t.name != name) continue;
    doctor(t);
    doctored = true;
  }
  ASSERT_TRUE(doctored);
  util::atomic_write_file(dir + "/" + snap_name,
                          persist::encode_snapshot(snap));
}

/// Resume after recovery: re-submit only the control requests the journal
/// had not made durable (ordinal > recovered last_seq; control ordinals and
/// journal seqs coincide because every control request is journalled).
/// Classifies are skipped — they never change durable state.
void resume_script(ClassificationService& service,
                   const std::vector<Request>& script) {
  const std::uint64_t last = service.storage().last_seq;
  std::uint64_t ordinal = 0;
  for (const Request& request : script) {
    if (request.kind == RequestKind::Classify) continue;
    ++ordinal;
    if (ordinal <= last) continue;
    ASSERT_TRUE(service.submit(request).accepted);
    (void)service.drain();
  }
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { faults::storage_points_reset(); }
  void TearDown() override {
    faults::storage_points_reset();
    util::ThreadPool::set_global_threads(0);
  }
};

// For every kill-point k in a clean run, a run killed at k and then
// recovered ends bit-identical to the clean run, at pool sizes 1/4/8. With
// `drift` on, every recovered serving tenant also holds the clean run's
// drift reference, whether restore or a replayed train built it.
void kill_point_sweep(bool drift) {
  const std::uint64_t seed = faults::FaultPlan::seed_from_env();
  const std::vector<Request> script = make_script(seed);
  const std::string tag = drift ? "drift_" : "";

  std::string expected_across_pools;
  for (const std::size_t threads : {1u, 4u, 8u}) {
    util::ThreadPool::set_global_threads(threads);

    // Uninterrupted durable run: the oracle and the kill-point census.
    const std::string clean_dir =
        fresh_dir(tag + "clean_t" + std::to_string(threads));
    faults::storage_points_reset();
    std::uint64_t crossings = 0;
    std::string expected;
    std::vector<std::pair<std::string, obs::ReferenceProfile>> references;
    {
      ClassificationService service(durable_config(clean_dir, 5, drift));
      run_script(service, script);
      crossings = faults::storage_point_crossings();
      expected = probe(service, seed);
      references = drift_references(service);
    }
    ASSERT_GT(crossings, 0u);
    ASSERT_FALSE(expected.empty());
    ASSERT_EQ(references.size(), drift ? 2u : 0u);  // alpha and beta
    // The oracle itself is pool-size invariant.
    if (expected_across_pools.empty()) {
      expected_across_pools = expected;
    } else {
      ASSERT_EQ(expected, expected_across_pools)
          << "clean run diverged at " << threads << " threads";
    }

    for (std::uint64_t k = 1; k <= crossings; ++k) {
      const std::string dir = fresh_dir(tag + "t" + std::to_string(threads) +
                                        "_k" + std::to_string(k));
      faults::storage_points_reset();
      faults::storage_points_arm_crash(k);
      bool crashed = false;
      {
        auto service = std::make_unique<ClassificationService>(
            durable_config(dir, 5, drift));
        try {
          for (const Request& request : script) {
            if (!service->submit(request).accepted) break;
            (void)service->drain();
          }
        } catch (const faults::SimulatedCrash&) {
          crashed = true;
        }
        // Process death: the service object goes away with whatever torn
        // state the crash left on disk.
      }
      faults::storage_points_reset();
      ASSERT_TRUE(crashed) << "kill-point " << k << " never fired";

      ClassificationService recovered(durable_config(dir, 5, drift));
      resume_script(recovered, script);
      EXPECT_EQ(probe(recovered, seed), expected)
          << "recovery diverged after crash at kill-point " << k << " ("
          << threads << " threads)";
      EXPECT_TRUE(drift_references(recovered) == references)
          << "drift reference diverged after crash at kill-point " << k
          << " (" << threads << " threads)";
    }
  }
}

TEST_F(CrashRecoveryTest, KillPointSweepIsBitIdenticalAtEveryPoolSize) {
  kill_point_sweep(false);
}

TEST_F(CrashRecoveryTest, KillPointSweepWithDriftKeepsTheReference) {
  kill_point_sweep(true);
}

TEST_F(CrashRecoveryTest, UninterruptedRestartRecoversEverything) {
  const std::uint64_t seed = faults::FaultPlan::seed_from_env();
  const std::vector<Request> script = make_script(seed);
  const std::string dir = fresh_dir("restart");
  std::string expected;
  {
    ClassificationService service(durable_config(dir));
    run_script(service, script);
    expected = probe(service, seed);
  }
  ClassificationService recovered(durable_config(dir));
  EXPECT_TRUE(recovered.storage().recovered);
  // alpha beta limbo gamma epsilon
  EXPECT_EQ(recovered.tenant_names().size(), 5u);
  EXPECT_EQ(probe(recovered, seed), expected);
  // No resume needed: every control op was durable before shutdown.
  EXPECT_EQ(recovered.storage().last_seq, 25u);
}

// A snapshot written while the drift reference was persisted still
// recovers: the profile block is skipped, and restore rebuilds a reference
// equal to the one the writing service held.
TEST_F(CrashRecoveryTest, LegacyProfileSnapshotRecovers) {
  const std::uint64_t seed = faults::FaultPlan::seed_from_env();
  const std::vector<Request> script = make_script(seed);
  const std::string dir = fresh_dir("legacy");
  std::string expected;
  std::vector<std::pair<std::string, obs::ReferenceProfile>> references;
  {
    ClassificationService service(durable_config(dir, 1000, true));
    run_script(service, script);
    ASSERT_TRUE(service.snapshot_now());
    expected = probe(service, seed);
    references = drift_references(service);
  }
  ASSERT_EQ(references.size(), 2u);
  const std::string snap_name = newest_snapshot(dir);
  ASSERT_FALSE(snap_name.empty());
  const std::string path = dir + "/" + snap_name;
  const std::string current = util::read_file(path);
  const std::string legacy = persist::reference::with_legacy_profiles(
      current, obs::DriftConfig{}.sketch_bins);
  ASSERT_GT(legacy.size(), current.size());
  util::atomic_write_file(path, legacy);

  ClassificationService recovered(durable_config(dir, 1000, true));
  EXPECT_EQ(recovered.storage().snapshots_discarded, 0u);
  EXPECT_TRUE(recovered.storage().discarded_tenants.empty());
  EXPECT_EQ(probe(recovered, seed), expected);
  EXPECT_TRUE(drift_references(recovered) == references);
}

// Whether a restored tenant has a drift monitor is up to the recovering
// service's config, not to the config it was trained under.
TEST_F(CrashRecoveryTest, RestoredMonitorFollowsTheRecoveringConfig) {
  const std::uint64_t seed = faults::FaultPlan::seed_from_env();
  const std::string dir = fresh_dir("drift_toggle");
  {
    ClassificationService service(durable_config(dir, 1000, false));
    run_script(service, make_script(seed));
    ASSERT_TRUE(service.snapshot_now());
    EXPECT_TRUE(drift_references(service).empty());
  }
  {
    ClassificationService with_drift(durable_config(dir, 1000, true));
    const auto references = drift_references(with_drift);
    ASSERT_EQ(references.size(), 2u);  // alpha and beta
    for (const auto& [name, reference] : references) {
      EXPECT_TRUE(reference ==
                  obs::ReferenceProfile::from_dataset(
                      with_drift.tenant(name)->fingerprinter().enrollment_data(),
                      obs::DriftConfig{}.sketch_bins))
          << name;
    }
  }
  ClassificationService without_drift(durable_config(dir, 1000, false));
  EXPECT_EQ(without_drift.tenant_names().size(), 5u);
  EXPECT_TRUE(drift_references(without_drift).empty());
}

// A retired tenant never classifies again, so it holds no drift monitor:
// not after a live retire, and not after recovery, whether the retire comes
// back by journal replay or from a snapshot.
TEST_F(CrashRecoveryTest, RetiredTenantHoldsNoDriftMonitor) {
  const std::uint64_t seed = faults::FaultPlan::seed_from_env();
  std::vector<Request> script = make_script(seed);
  script.push_back(control_request(RequestKind::Retire, "beta"));
  const std::string dir = fresh_dir("retired_drift");
  const auto check = [](const ClassificationService& service) {
    ASSERT_NE(service.tenant("beta"), nullptr);
    EXPECT_EQ(service.tenant("beta")->state(), TenantSession::State::Retired);
    EXPECT_EQ(service.tenant("beta")->fingerprinter().drift_monitor(),
              nullptr);
    const auto references = drift_references(service);
    ASSERT_EQ(references.size(), 1u);
    EXPECT_EQ(references[0].first, "alpha");
  };
  {
    ClassificationService live(durable_config(dir, 1000, true));
    run_script(live, script);
    check(live);
  }
  {
    ClassificationService replayed(durable_config(dir, 1000, true));
    EXPECT_EQ(replayed.storage().snapshot_seq, 0u);
    // Every request but the 4 classifies is journalled.
    EXPECT_EQ(replayed.storage().recovered_records, script.size() - 4);
    check(replayed);
    ASSERT_TRUE(replayed.snapshot_now());
  }
  ClassificationService restored(durable_config(dir, 1000, true));
  EXPECT_GT(restored.storage().snapshot_seq, 0u);
  EXPECT_EQ(restored.storage().recovered_records, 0u);
  check(restored);
}

/// Where the Retire of a trained tenant sits when the service restarts.
enum class RetireForm {
  Journalled,     // in the journal tail, over a snapshot that holds beta
  Snapshotted,    // in a snapshot written after it: a tombstone
  OlderSnapshot,  // in that snapshot, as written before retire freed the
                  // model: beta retired but still holding data and forest
};

/// Runs make_script with drift on, snapshots with beta serving, then
/// retires beta and leaves the Retire in `dir` in the given form.
void retire_beta(const std::string& dir, RetireForm form) {
  std::string serving_snapshot;
  {
    ClassificationService service(durable_config(dir, 1000, true));
    run_script(service, make_script(faults::FaultPlan::seed_from_env()));
    ASSERT_TRUE(service.snapshot_now());
    serving_snapshot = util::read_file(dir + "/" + newest_snapshot(dir));
    ASSERT_TRUE(
        service.submit(control_request(RequestKind::Retire, "beta")).accepted);
    ASSERT_EQ(service.drain()[0].status, ServeStatus::Ok);
    if (form != RetireForm::Journalled) {
      ASSERT_TRUE(service.snapshot_now());
    }
  }
  if (form != RetireForm::OlderSnapshot) return;
  // The older writer encoded a retired tenant like a serving one: the
  // serving snapshot's sections with beta's state flipped to Retired.
  const std::string name = newest_snapshot(dir);
  persist::ServiceSnapshot snap =
      persist::decode_snapshot(serving_snapshot, name);
  snap.last_seq =
      persist::decode_snapshot(util::read_file(dir + "/" + name), name)
          .last_seq;
  for (persist::TenantState& t : snap.tenants) {
    if (t.name != "beta") continue;
    ASSERT_TRUE(t.trained);
    ASSERT_FALSE(t.data.empty());
    t.state = static_cast<std::uint8_t>(TenantSession::State::Retired);
  }
  util::atomic_write_file(dir + "/" + name, persist::encode_snapshot(snap));
}

/// Recovers a drift-on service from `dir`, has it journal one more request
/// (a Retire of the retired beta, which fails) and snapshot, and returns
/// the bytes of that snapshot.
std::string resnapshot(const std::string& dir,
                       std::uint64_t expected_replayed) {
  ClassificationService service(durable_config(dir, 1000, true));
  EXPECT_TRUE(service.storage().discarded_tenants.empty());
  EXPECT_EQ(service.storage().recovered_records, expected_replayed);
  EXPECT_TRUE(
      service.submit(control_request(RequestKind::Retire, "beta")).accepted);
  EXPECT_EQ(service.drain()[0].status, ServeStatus::TenantRetired);
  EXPECT_TRUE(service.snapshot_now());
  return util::read_file(dir + "/" + newest_snapshot(dir));
}

// A snapshot from before retire freed the model, whose retired tenant still
// holds its dataset and forest, recovers that tenant as a tombstone: no
// model and no drift monitor, even with drift on. The next snapshot writes
// the tombstone.
TEST_F(CrashRecoveryTest, OlderSnapshotRetireeRecoversAsATombstone) {
  const std::string dir = fresh_dir("tomb_older");
  ASSERT_NO_FATAL_FAILURE(retire_beta(dir, RetireForm::OlderSnapshot));
  ClassificationService recovered(durable_config(dir, 1000, true));
  EXPECT_TRUE(recovered.storage().discarded_tenants.empty());
  EXPECT_EQ(recovered.storage().recovered_records, 0u);
  const TenantSession* beta = recovered.tenant("beta");
  ASSERT_NE(beta, nullptr);
  const core::OnlineFingerprinter& fp = beta->fingerprinter();
  EXPECT_EQ(beta->state(), TenantSession::State::Retired);
  EXPECT_EQ(beta->enrolled(), 4u);
  EXPECT_FALSE(fp.trained());
  EXPECT_TRUE(fp.enrollment_data().empty());
  EXPECT_TRUE(fp.forest().arena().empty());
  EXPECT_EQ(fp.drift_monitor(), nullptr);
  EXPECT_EQ(fp.feature_count(), 24u);
  EXPECT_EQ(fp.class_names(), (std::vector<std::string>{"net-0", "net-1"}));
  ASSERT_EQ(drift_references(recovered).size(), 1u);  // alpha only

  ASSERT_TRUE(
      recovered.submit(control_request(RequestKind::Retire, "beta")).accepted);
  ASSERT_EQ(recovered.drain()[0].status, ServeStatus::TenantRetired);
  ASSERT_TRUE(recovered.snapshot_now());
  const std::string name = newest_snapshot(dir);
  const persist::ServiceSnapshot snap =
      persist::decode_snapshot(util::read_file(dir + "/" + name), name);
  const auto t = std::find_if(
      snap.tenants.begin(), snap.tenants.end(),
      [](const persist::TenantState& s) { return s.name == "beta"; });
  ASSERT_NE(t, snap.tenants.end());
  EXPECT_FALSE(t->trained);
  EXPECT_TRUE(t->data.empty());
  EXPECT_EQ(t->data.feature_count(), 24u);
  EXPECT_EQ(t->class_names, fp.class_names());
  EXPECT_EQ(t->enrolled, 4u);
}

// However the Retire reaches a restarted service — replayed from the
// journal over a snapshot that holds the model, restored from a tombstone
// snapshot, or restored from an older snapshot's retiree with its model —
// the service ends in the same state, down to the next snapshot's bytes.
TEST_F(CrashRecoveryTest, ReplayedRetireReencodesLikeARestoredTombstone) {
  const std::string journalled = fresh_dir("tomb_journalled");
  const std::string snapshotted = fresh_dir("tomb_snapshotted");
  const std::string older = fresh_dir("tomb_older_bytes");
  ASSERT_NO_FATAL_FAILURE(retire_beta(journalled, RetireForm::Journalled));
  ASSERT_NO_FATAL_FAILURE(retire_beta(snapshotted, RetireForm::Snapshotted));
  ASSERT_NO_FATAL_FAILURE(retire_beta(older, RetireForm::OlderSnapshot));
  const std::string expected = resnapshot(snapshotted, 0);
  EXPECT_EQ(resnapshot(journalled, 1), expected);
  EXPECT_EQ(resnapshot(older, 0), expected);
  // ... in which every retiree is a tombstone and alpha keeps its model.
  const persist::ServiceSnapshot snap =
      persist::decode_snapshot(expected, "expected");
  std::vector<std::string> tombstones;
  for (const persist::TenantState& t : snap.tenants) {
    if (t.state !=
        static_cast<std::uint8_t>(TenantSession::State::Retired)) {
      EXPECT_EQ(t.trained, t.name == "alpha") << t.name;
      continue;
    }
    if (!t.trained && t.data.empty()) tombstones.push_back(t.name);
  }
  EXPECT_EQ(tombstones,
            (std::vector<std::string>{"beta", "gamma", "epsilon"}));
  EXPECT_FALSE(snap.tenants.front().data.empty());  // alpha
}

TEST_F(CrashRecoveryTest, RecoveryAccountsForEveryJournalRecord) {
  const std::uint64_t seed = faults::FaultPlan::seed_from_env();
  const std::vector<Request> script = make_script(seed);
  const std::string dir = fresh_dir("accounting");
  std::string expected;
  {
    // snapshot_every beyond the script: every record stays in the journal.
    ClassificationService service(durable_config(dir, 1000));
    run_script(service, script);
    expected = probe(service, seed);
  }
  // A torn tail appears (half-written record at power cut).
  {
    std::string image = util::read_file(dir + "/journal.bin");
    image += "torn half-record garbage";
    util::atomic_write_file(dir + "/journal.bin", image);
  }
  ClassificationService recovered(durable_config(dir, 1000));
  const StorageStats storage = recovered.storage();
  // 25 control requests in the script, all still in the journal, plus the
  // torn tail: every record is accounted for.
  EXPECT_EQ(storage.recovered_records, 25u);
  EXPECT_EQ(storage.skipped_records, 0u);
  EXPECT_EQ(storage.discarded_records, 1u);
  EXPECT_EQ(storage.snapshot_seq, 0u);
  EXPECT_EQ(probe(recovered, seed), expected);
}

TEST_F(CrashRecoveryTest, CorruptNewestSnapshotFallsBackAndDiscards) {
  const std::uint64_t seed = faults::FaultPlan::seed_from_env();
  const std::vector<Request> script = make_script(seed);
  const std::string dir = fresh_dir("badsnap");
  std::string expected;
  {
    ClassificationService service(durable_config(dir, 1000));
    run_script(service, script);
    ASSERT_TRUE(service.snapshot_now());
    expected = probe(service, seed);
  }
  // Flip a byte inside the snapshot: recovery must discard it and fall
  // back to the journal (still holding all records — snapshot_now reset it,
  // so here the fallback is "no snapshot, no tail" for the discarded one).
  // To keep the journal authoritative, corrupt the snapshot AND restore the
  // journal image from a pre-snapshot copy.
  const std::string snap_name = newest_snapshot(dir);
  ASSERT_FALSE(snap_name.empty());
  std::string snap = util::read_file(dir + "/" + snap_name);
  snap[snap.size() / 2] = static_cast<char>(snap[snap.size() / 2] ^ 0x01);
  util::atomic_write_file(dir + "/" + snap_name, snap);

  ClassificationService recovered(durable_config(dir, 1000));
  const StorageStats storage = recovered.storage();
  EXPECT_EQ(storage.snapshots_discarded, 1u);
  EXPECT_FALSE(storage.recovered);  // journal was reset by the snapshot
  EXPECT_TRUE(recovered.tenant_names().empty());
}

TEST_F(CrashRecoveryTest, PersistentJournalFailureDegradesToReadOnly) {
  const std::uint64_t seed = faults::FaultPlan::seed_from_env();
  const std::vector<Request> script = make_script(seed);
  const std::string dir = fresh_dir("degraded");
  auto service =
      std::make_unique<ClassificationService>(durable_config(dir, 1000));
  run_script(*service, script);
  const std::string before = probe(*service, seed);

  // Every journal write fails from here on (dead disk).
  faults::storage_points_arm_io_failure(1, 1'000'000);
  for (int attempt = 0; attempt < 3; ++attempt) {
    ASSERT_TRUE(
        service->submit(enroll_request("delta", 0, seed + 400)).accepted);
    const auto responses = service->drain();
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status, ServeStatus::StorageUnavailable);
  }
  EXPECT_TRUE(service->degraded());
  EXPECT_EQ(service->storage().journal_failures, 3u);
  // Degraded: control requests short-circuit (no journal crossing) ...
  ASSERT_TRUE(
      service->submit(control_request(RequestKind::Train, "delta")).accepted);
  EXPECT_EQ(service->drain()[0].status, ServeStatus::StorageUnavailable);
  // ... but classify keeps serving, bit-identically.
  ASSERT_TRUE(
      service->submit(classify_request("alpha", 0, seed + 500)).accepted);
  EXPECT_EQ(service->drain()[0].status, ServeStatus::Ok);
  EXPECT_EQ(probe(*service, seed), before);
  // The rejected enrolls were never applied: no "delta" namespace.
  EXPECT_EQ(service->tenant("delta"), nullptr);
  const auto stats = service->stats();
  EXPECT_EQ(stats.by_status[static_cast<std::size_t>(
                ServeStatus::StorageUnavailable)],
            4u);

  // Restart heals: recovery reloads the durable state from before the
  // failures (which were never applied, so nothing is lost).
  faults::storage_points_reset();
  service.reset();
  ClassificationService recovered(durable_config(dir, 1000));
  EXPECT_FALSE(recovered.degraded());
  EXPECT_EQ(probe(recovered, seed), before);
}

// The review-critical append-failure shape: the frame is FULLY written when
// the fsync fails, the op is answered storage-unavailable and never applied
// — the writer must truncate the orphan frame back out, or the next acked
// append lands past it and the recovery prefix scan (duplicate seq)
// discards the acked record while replaying the unapplied orphan.
TEST_F(CrashRecoveryTest, FailedAppendAfterFullWriteLeavesNoOrphan) {
  const std::uint64_t seed = faults::FaultPlan::seed_from_env();
  const std::vector<Request> script = make_script(seed);
  const std::string dir = fresh_dir("rollback");
  auto service =
      std::make_unique<ClassificationService>(durable_config(dir, 1000));
  run_script(*service, script);

  // Fail the next append at its pre-fsync decision (crossing 4 of 5).
  faults::storage_points_reset();
  faults::storage_points_arm_io_failure(4, 1);
  ASSERT_TRUE(
      service->submit(enroll_request("delta", 0, seed + 400)).accepted);
  EXPECT_EQ(service->drain()[0].status, ServeStatus::StorageUnavailable);
  faults::storage_points_reset();
  EXPECT_EQ(service->tenant("delta"), nullptr);

  // The retried enroll is acked and applied ...
  ASSERT_TRUE(
      service->submit(enroll_request("delta", 0, seed + 400)).accepted);
  EXPECT_EQ(service->drain()[0].status, ServeStatus::Ok);
  const std::string before = probe(*service, seed);

  // ... and survives a restart with nothing discarded.
  service.reset();
  ClassificationService recovered(durable_config(dir, 1000));
  EXPECT_EQ(recovered.storage().discarded_records, 0u);
  ASSERT_NE(recovered.tenant("delta"), nullptr);
  EXPECT_EQ(recovered.tenant("delta")->enrolled(), 1u);
  EXPECT_EQ(probe(recovered, seed), before);
}

// A snapshot tenant that fails semantic validation on restore must take its
// journal-tail records with it: replaying them (e.g. an Enroll) would
// recreate the namespace empty, silently diverging past the one discarded
// tenant. The dropped names and record count are surfaced, not just a tally.
TEST_F(CrashRecoveryTest, DiscardedSnapshotTenantIsNotRecreatedByReplay) {
  const std::string dir = fresh_dir("discarded");
  ASSERT_NO_FATAL_FAILURE(run_and_doctor_snapshot(
      dir, "gamma", [](persist::TenantState& t) {
        // Leaves the enrollment labels pointing outside class_names — an
        // inconsistency the codec's structural checks cannot see (labels
        // and class names live in different sections) but restore rejects.
        t.class_names.clear();
      }));

  ClassificationService recovered(durable_config(dir, 12));
  const StorageStats storage = recovered.storage();
  EXPECT_EQ(storage.discarded_tenants, std::vector<std::string>{"gamma"});
  EXPECT_EQ(storage.replay_dropped_records, 2u);  // Retire + failing Train
  EXPECT_EQ(recovered.tenant("gamma"), nullptr);
  // The other tenants recover untouched.
  EXPECT_NE(recovered.tenant("alpha"), nullptr);
  EXPECT_NE(recovered.tenant("beta"), nullptr);
  EXPECT_NE(recovered.tenant("limbo"), nullptr);
}

// A trained snapshot tenant whose forest splits on a feature past the
// tenant's trace prefix would read outside every row it classifies: restore
// refuses it, and only that tenant is discarded.
TEST_F(CrashRecoveryTest, SnapshotForestSplittingPastTheTraceIsDiscarded) {
  const std::string dir = fresh_dir("wide_split");
  ASSERT_NO_FATAL_FAILURE(run_and_doctor_snapshot(
      dir, "beta", [](persist::TenantState& t) {
        ASSERT_TRUE(t.trained);
        const auto split =
            std::find_if(t.arena.feature.begin(), t.arena.feature.end(),
                         [](std::int32_t f) { return f >= 0; });
        ASSERT_NE(split, t.arena.feature.end());
        *split = static_cast<std::int32_t>(t.feature_count);
      }));

  ClassificationService recovered(durable_config(dir, 12));
  EXPECT_EQ(recovered.storage().discarded_tenants,
            std::vector<std::string>{"beta"});
  EXPECT_EQ(recovered.tenant("beta"), nullptr);
  EXPECT_NE(recovered.tenant("alpha"), nullptr);
}

// A trained snapshot tenant whose forest predicts more classes than the
// tenant has names would index past class_names in every verdict.
TEST_F(CrashRecoveryTest, SnapshotForestWithMoreClassesThanNamesIsDiscarded) {
  const std::string dir = fresh_dir("extra_class");
  ASSERT_NO_FATAL_FAILURE(run_and_doctor_snapshot(
      dir, "beta", [](persist::TenantState& t) {
        ASSERT_TRUE(t.trained);
        // Widen every leaf distribution by one class no name covers; the
        // arena stays structurally valid, so the codec accepts it.
        ml::ForestArena& arena = t.arena;
        const auto classes = static_cast<std::size_t>(arena.class_count);
        std::vector<double> dists;
        for (std::size_t i = 0; i < arena.node_count(); ++i) {
          if (arena.feature[i] != ml::ForestArena::kLeaf) continue;
          const auto from = arena.dists.begin() + arena.right[i];
          arena.right[i] = static_cast<std::int32_t>(dists.size());
          dists.insert(dists.end(), from,
                       from + static_cast<std::ptrdiff_t>(classes));
          dists.push_back(0.0);
        }
        arena.dists = std::move(dists);
        ++arena.class_count;
      }));

  ClassificationService recovered(durable_config(dir, 12));
  EXPECT_EQ(recovered.storage().discarded_tenants,
            std::vector<std::string>{"beta"});
  EXPECT_EQ(recovered.tenant("beta"), nullptr);
  EXPECT_NE(recovered.tenant("alpha"), nullptr);
}

// A garbage file whose digit run would wrap u64 must not be treated as a
// snapshot at all — before the overflow guard it could sort as "newest" and
// shadow the genuine snapshot.
TEST_F(CrashRecoveryTest, OverlongSnapshotNameCannotShadowTheRealOne) {
  const std::uint64_t seed = faults::FaultPlan::seed_from_env();
  const std::vector<Request> script = make_script(seed);
  const std::string dir = fresh_dir("overflow");
  std::string expected;
  {
    ClassificationService service(durable_config(dir, 1000));
    run_script(service, script);
    ASSERT_TRUE(service.snapshot_now());
    expected = probe(service, seed);
  }
  util::atomic_write_file(dir + "/snapshot-99999999999999999999999.bin",
                          "not a snapshot");
  ClassificationService recovered(durable_config(dir, 1000));
  EXPECT_EQ(recovered.storage().snapshots_discarded, 0u);
  EXPECT_EQ(probe(recovered, seed), expected);
}

TEST_F(CrashRecoveryTest, SnapshotFailureLeavesJournalAuthoritative) {
  const std::uint64_t seed = faults::FaultPlan::seed_from_env();
  const std::vector<Request> script = make_script(seed);
  const std::string dir = fresh_dir("snapfail");
  std::string expected;
  {
    ClassificationService service(durable_config(dir, 1000));
    run_script(service, script);
    expected = probe(service, seed);
    // The snapshot write dies, but the journal already has every record.
    faults::storage_points_arm_io_failure(1, 1);
    EXPECT_FALSE(service.snapshot_now());
    EXPECT_EQ(service.storage().snapshot_failures, 1u);
    faults::storage_points_reset();
  }
  ClassificationService recovered(durable_config(dir, 1000));
  EXPECT_EQ(recovered.storage().recovered_records, 25u);
  EXPECT_EQ(probe(recovered, seed), expected);
}

}  // namespace
}  // namespace amperebleed::serve
