#include "amperebleed/obs/audit.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "amperebleed/obs/obs.hpp"
#include "amperebleed/util/json.hpp"

namespace amperebleed::obs {
namespace {

constexpr const char* kPath = "/sys/class/hwmon/hwmon0/curr1_input";
constexpr sim::TimeNs kUntimed{-1};

/// Script `n` accesses for `principal` at a fixed period starting at `start`.
void replay(AccessAuditLog& log, sim::TimeNs start, sim::TimeNs period, int n,
            const std::string& principal, const char* path = kPath,
            AccessOutcome outcome = AccessOutcome::Ok) {
  for (int i = 0; i < n; ++i) {
    log.record(sim::TimeNs{start.ns + period.ns * i}, path, false, outcome,
               principal);
  }
}

TEST(AccessOutcomeName, AllNamed) {
  EXPECT_EQ(access_outcome_name(AccessOutcome::Ok), "ok");
  EXPECT_EQ(access_outcome_name(AccessOutcome::Denied), "denied");
  EXPECT_EQ(access_outcome_name(AccessOutcome::Error), "error");
}

TEST(PrincipalScope, NestsAndRestores) {
  EXPECT_TRUE(PrincipalScope::current().empty());
  {
    PrincipalScope outer("daemon");
    EXPECT_EQ(PrincipalScope::current(), "daemon");
    {
      PrincipalScope inner("attacker");
      EXPECT_EQ(PrincipalScope::current(), "attacker");
    }
    EXPECT_EQ(PrincipalScope::current(), "daemon");
  }
  EXPECT_TRUE(PrincipalScope::current().empty());
}

TEST(PrincipalScope, IsThreadLocal) {
  PrincipalScope scope("main");
  std::string seen = "unset";
  std::thread worker([&seen]() { seen = PrincipalScope::current(); });
  worker.join();
  EXPECT_TRUE(seen.empty());
  EXPECT_EQ(PrincipalScope::current(), "main");
}

TEST(AccessAuditLog, AggregatesPerPrincipalAndPath) {
  AccessAuditLog log;
  log.record(kUntimed, "a", false, AccessOutcome::Ok, "u1");
  log.record(kUntimed, "a", false, AccessOutcome::Ok, "u1");
  log.record(kUntimed, "a", false, AccessOutcome::Denied, "u1");
  log.record(kUntimed, "b", true, AccessOutcome::Error, "u2");
  EXPECT_EQ(log.total_accesses(), 4u);
  EXPECT_EQ(log.total_denials(), 1u);

  const auto stats = log.stats();
  ASSERT_EQ(stats.size(), 2u);  // (u1,a) and (u2,b), sorted by principal
  EXPECT_EQ(stats[0].principal, "u1");
  EXPECT_EQ(stats[0].path, "a");
  EXPECT_EQ(stats[0].ok, 2u);
  EXPECT_EQ(stats[0].denied, 1u);
  EXPECT_EQ(stats[0].total(), 3u);
  EXPECT_EQ(stats[1].principal, "u2");
  EXPECT_EQ(stats[1].error, 1u);
}

TEST(AccessAuditLog, FallsBackToPrivilegeDerivedPrincipal) {
  AccessAuditLog log;
  // No scope active: "user", or "root" for a privileged access.
  log.record(kUntimed, "p", false, AccessOutcome::Ok);
  log.record(kUntimed, "p", true, AccessOutcome::Ok);
  {
    PrincipalScope scope("governor");
    log.record(kUntimed, "p", false, AccessOutcome::Ok);
  }
  std::set<std::string> principals;
  for (const auto& s : log.stats()) principals.insert(s.principal);
  EXPECT_EQ(principals, (std::set<std::string>{"user", "root", "governor"}));
}

TEST(AccessAuditLog, TimestampsComeFromInjectedClock) {
  AccessAuditLog log;
  log.record(kUntimed, "p", false, AccessOutcome::Ok);
  log.record(sim::milliseconds(35), "p", false, AccessOutcome::Ok);
  log.record(kUntimed, "p", false, AccessOutcome::Ok);

  const auto events = log.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_LT(events[0].t.ns, 0);
  EXPECT_EQ(events[1].t.ns, sim::milliseconds(35).ns);
  EXPECT_LT(events[2].t.ns, 0);
  EXPECT_EQ(log.path_name(events[0].path_id), "p");
}

TEST(AccessAuditLog, BoundedEventStreamKeepsAggregates) {
  AccessAuditLog log(2);
  for (int i = 0; i < 5; ++i) {
    log.record(kUntimed, "p", false, AccessOutcome::Ok, "u");
  }
  EXPECT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.dropped(), 3u);
  // Aggregation still sees every access even after the ring fills.
  EXPECT_EQ(log.total_accesses(), 5u);
  ASSERT_EQ(log.stats().size(), 1u);
  EXPECT_EQ(log.stats()[0].ok, 5u);
}

TEST(AccessAuditLog, JsonSnapshotParsesBack) {
  AccessAuditLog log;
  log.record(kUntimed, "a", false, AccessOutcome::Ok, "u1");
  log.record(kUntimed, "a", false, AccessOutcome::Denied, "u1");
  const auto doc = util::Json::parse(log.to_json().dump());
  ASSERT_TRUE(doc.is_object());
  const auto* totals = doc.find("totals");
  ASSERT_NE(totals, nullptr);
  EXPECT_EQ(totals->find("accesses")->as_integer(), 2);
  EXPECT_EQ(totals->find("denials")->as_integer(), 1);
  EXPECT_EQ(totals->find("dropped_events")->as_integer(), 0);
  const auto* by = doc.find("by_principal_path");
  ASSERT_NE(by, nullptr);
  ASSERT_TRUE(by->is_array());
  ASSERT_EQ(by->size(), 1u);
  EXPECT_EQ(by->at(0).find("principal")->as_string(), "u1");
  EXPECT_EQ(by->at(0).find("path")->as_string(), "a");
  EXPECT_EQ(by->at(0).find("denied")->as_integer(), 1);
  EXPECT_EQ(doc.find("recorded_events")->as_integer(), 2);
}

TEST(AccessAuditLog, ClearResetsEverything) {
  AccessAuditLog log;
  log.record(kUntimed, "a", false, AccessOutcome::Denied, "u");
  log.clear();
  EXPECT_EQ(log.total_accesses(), 0u);
  EXPECT_EQ(log.total_denials(), 0u);
  EXPECT_TRUE(log.events().empty());
  EXPECT_TRUE(log.stats().empty());
}

TEST(AccessAuditLog, ConcurrentRecordsAreLossless) {
  AccessAuditLog log;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&log, t]() {
      const std::string principal = "u" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        log.record(kUntimed, "p", false, AccessOutcome::Ok, principal);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(log.total_accesses(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(log.stats().size(), static_cast<std::size_t>(kThreads));
}

// ---------------------------------------------------------------------------
// Rate detector on scripted access patterns.

TEST(RateDetector, FlagsFastPollerNotSlowDaemon) {
  AccessAuditLog log;

  // Benign daemon: 1 Hz for 10 s. Attacker: 35 ms cadence (28.6 Hz) for 10 s.
  replay(log, sim::TimeNs{0}, sim::seconds(1), 10, "daemon");
  replay(log, sim::TimeNs{0}, sim::milliseconds(35), 286, "attacker");

  RateDetectorConfig config;  // 10 r/s over 3 consecutive 1 s windows
  const auto report = detect_rate_anomalies(log, config);
  ASSERT_EQ(report.principals.size(), 2u);

  const auto* daemon = report.find("daemon");
  ASSERT_NE(daemon, nullptr);
  EXPECT_FALSE(daemon->flagged);
  EXPECT_EQ(daemon->hot_windows, 0u);
  EXPECT_LT(daemon->detection_time.ns, 0);
  EXPECT_LE(daemon->peak_path_rate_hz, 2.0);

  const auto* attacker = report.find("attacker");
  ASSERT_NE(attacker, nullptr);
  EXPECT_TRUE(attacker->flagged);
  EXPECT_GE(attacker->peak_path_rate_hz, 28.0);
  EXPECT_GE(attacker->hot_windows, 3u);
  // Flagged after the third consecutive hot 1 s window.
  EXPECT_EQ(attacker->detection_time.ns, sim::seconds(3).ns);
}

TEST(RateDetector, RequiresConsecutiveHotWindows) {
  AccessAuditLog log;

  // One hot 1 s burst (20 reads), then silence: below the 3-window rule.
  replay(log, sim::TimeNs{0}, sim::milliseconds(50), 20, "bursty");
  // Hot in windows 0,1 then cold in 2, hot in 3,4 — never 3 in a row.
  replay(log, sim::seconds(10), sim::milliseconds(50), 40, "gappy");
  replay(log, sim::seconds(13), sim::milliseconds(50), 40, "gappy");

  RateDetectorConfig config;
  const auto report = detect_rate_anomalies(log, config);
  const auto* bursty = report.find("bursty");
  ASSERT_NE(bursty, nullptr);
  EXPECT_FALSE(bursty->flagged);
  EXPECT_EQ(bursty->hot_windows, 1u);
  const auto* gappy = report.find("gappy");
  ASSERT_NE(gappy, nullptr);
  EXPECT_FALSE(gappy->flagged);
  EXPECT_EQ(gappy->hot_windows, 4u);

  // Lowering the consecutive requirement to 2 flags the gappy poller.
  config.consecutive_windows = 2;
  EXPECT_TRUE(detect_rate_anomalies(log, config).find("gappy")->flagged);
}

TEST(RateDetector, PerPathRatesDoNotSumAcrossPaths) {
  AccessAuditLog log;
  // 4 paths at 4 r/s each: 16 r/s aggregate, but no single path above 10.
  for (int p = 0; p < 4; ++p) {
    const std::string path = "rail" + std::to_string(p);
    replay(log, sim::milliseconds(10 * p), sim::milliseconds(250), 20,
           "health", path.c_str());
  }
  RateDetectorConfig config;
  const auto report = detect_rate_anomalies(log, config);
  const auto* health = report.find("health");
  ASSERT_NE(health, nullptr);
  EXPECT_FALSE(health->flagged);
  EXPECT_LE(health->peak_path_rate_hz, 5.0);
}

TEST(RateDetector, IgnoresUntimestampedEvents) {
  AccessAuditLog log;  // every event carries t = -1
  for (int i = 0; i < 1'000; ++i) {
    log.record(kUntimed, "p", false, AccessOutcome::Ok, "u");
  }
  const auto report = detect_rate_anomalies(log, RateDetectorConfig{});
  EXPECT_TRUE(report.principals.empty());
}

TEST(RateDetector, EvaluationSeparatesScriptedActors) {
  AccessAuditLog log;
  replay(log, sim::TimeNs{0}, sim::seconds(1), 30, "daemon");
  replay(log, sim::milliseconds(3), sim::milliseconds(500), 60,
         "governor");
  replay(log, sim::milliseconds(7), sim::milliseconds(35), 857,
         "attacker-35ms");
  replay(log, sim::milliseconds(11), sim::milliseconds(1), 30'000,
         "attacker-1khz");

  RateDetectorConfig config;
  const auto eval =
      evaluate_detector(log, config, {"attacker-35ms", "attacker-1khz"});
  EXPECT_GT(eval.tpr(), 0.9);
  EXPECT_EQ(eval.fpr(), 0.0);
  EXPECT_EQ(eval.fp, 0u);
  EXPECT_GT(eval.tp, 0u);
  EXPECT_GT(eval.tn, 0u);

  // An absurdly high threshold misses everyone: TPR collapses, FPR stays 0.
  config.threshold_reads_per_s = 5'000.0;
  const auto blind =
      evaluate_detector(log, config, {"attacker-35ms", "attacker-1khz"});
  EXPECT_EQ(blind.tpr(), 0.0);
  EXPECT_EQ(blind.fpr(), 0.0);
}

TEST(ObsAudit, GlobalHelperRespectsAuditSwitch) {
  shutdown();
  audit_access(kUntimed, "p", false, AccessOutcome::Ok);
  EXPECT_EQ(audit_log().total_accesses(), 0u);

  ObsConfig config;
  config.enabled = true;
  config.audit = false;
  init(config);
  audit_access(kUntimed, "p", false, AccessOutcome::Ok);
  EXPECT_EQ(audit_log().total_accesses(), 0u);
  shutdown();

  init();
  audit_access(kUntimed, "p", false, AccessOutcome::Denied);
  EXPECT_EQ(audit_log().total_accesses(), 1u);
  EXPECT_EQ(audit_log().total_denials(), 1u);
  shutdown();
  EXPECT_EQ(audit_log().total_accesses(), 0u);
}

}  // namespace
}  // namespace amperebleed::obs
