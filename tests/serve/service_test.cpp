#include "amperebleed/serve/service.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "amperebleed/util/fs.hpp"
#include "amperebleed/util/rng.hpp"
#include "amperebleed/util/thread_pool.hpp"

namespace amperebleed::serve {
namespace {

// Synthetic "model signature" traces, same shape as the online tests: class
// c sits at mean level 100*c with a class-specific ripple.
core::Trace synthetic_trace(int cls, std::uint64_t seed,
                            std::size_t len = 40) {
  util::Rng rng(seed);
  core::Trace t({}, sim::TimeNs{0}, sim::milliseconds(35));
  for (std::size_t i = 0; i < len; ++i) {
    const double ripple = (i % (2 + static_cast<std::size_t>(cls))) * 5.0;
    t.push(100.0 * cls + ripple + rng.gaussian(0.0, 2.0));
  }
  return t;
}

Request enroll_request(const std::string& tenant, int cls,
                       std::uint64_t seed) {
  Request r;
  r.kind = RequestKind::Enroll;
  r.tenant = tenant;
  r.label = "net-" + std::to_string(cls);
  r.trace = synthetic_trace(cls, seed);
  return r;
}

Request classify_request(const std::string& tenant, int cls,
                         std::uint64_t seed) {
  Request r;
  r.kind = RequestKind::Classify;
  r.tenant = tenant;
  r.trace = synthetic_trace(cls, seed);
  return r;
}

Request control_request(RequestKind kind, const std::string& tenant) {
  Request r;
  r.kind = kind;
  r.tenant = tenant;
  return r;
}

ServiceConfig small_config() {
  ServiceConfig config;
  config.fingerprinter.forest.n_trees = 20;
  return config;
}

/// Enroll + train `tenant` with classes 0..classes-1 through the queue.
void bring_up(ClassificationService& service, const std::string& tenant,
              int classes = 2, std::size_t reps = 6) {
  for (int cls = 0; cls < classes; ++cls) {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      (void)service.submit(
          enroll_request(tenant, cls, 100 * static_cast<std::uint64_t>(cls) +
                                          rep));
    }
  }
  (void)service.submit(control_request(RequestKind::Train, tenant));
  for (const auto& response : service.drain()) {
    ASSERT_TRUE(response.ok())
        << kind_name(response.kind) << ": " << response.error;
  }
}

TEST(ClassificationService, EnrollTrainClassifyRoundTrip) {
  ClassificationService service(small_config());
  bring_up(service, "acme");

  const auto submit =
      service.submit(classify_request("acme", 1, 0xfeed));
  ASSERT_TRUE(submit.accepted);
  const auto responses = service.tick();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].id, submit.id);
  EXPECT_EQ(responses[0].status, ServeStatus::Ok);
  EXPECT_TRUE(responses[0].verdict.known);
  EXPECT_EQ(responses[0].verdict.model_name, "net-1");
  // Virtual latency: admitted this tick, completed one tick later.
  EXPECT_EQ(responses[0].latency().ns, service.config().tick.ns);

  const TenantSession* tenant = service.tenant("acme");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->state(), TenantSession::State::Serving);
  EXPECT_EQ(tenant->classified(), 1u);
}

TEST(ClassificationService, ClassifyUnknownTenant) {
  ClassificationService service(small_config());
  (void)service.submit(classify_request("ghost", 0, 1));
  const auto responses = service.drain();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::UnknownTenant);
  EXPECT_NE(responses[0].error.find("ghost"), std::string::npos);
}

TEST(ClassificationService, ClassifyUntrainedTenant) {
  ClassificationService service(small_config());
  (void)service.submit(enroll_request("acme", 0, 1));
  (void)service.submit(classify_request("acme", 0, 2));
  const auto responses = service.drain();
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, ServeStatus::Ok);
  EXPECT_EQ(responses[1].status, ServeStatus::NotTrained);
}

TEST(ClassificationService, EnrollAfterRetire) {
  ClassificationService service(small_config());
  bring_up(service, "acme");
  (void)service.submit(control_request(RequestKind::Retire, "acme"));
  (void)service.submit(enroll_request("acme", 0, 7));
  (void)service.submit(classify_request("acme", 0, 8));
  (void)service.submit(control_request(RequestKind::Retire, "acme"));
  const auto responses = service.drain();
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_EQ(responses[0].status, ServeStatus::Ok);  // retire
  EXPECT_EQ(responses[1].status, ServeStatus::TenantRetired);
  EXPECT_EQ(responses[2].status, ServeStatus::TenantRetired);
  EXPECT_EQ(responses[3].status, ServeStatus::TenantRetired);  // twice
  // The namespace stays reserved after retirement.
  ASSERT_NE(service.tenant("acme"), nullptr);
  EXPECT_EQ(service.tenant("acme")->state(), TenantSession::State::Retired);
}

TEST(ClassificationService, TrainLifecycleErrors) {
  ClassificationService service(small_config());
  // Train an unknown tenant; then train with a single class.
  (void)service.submit(control_request(RequestKind::Train, "ghost"));
  (void)service.submit(enroll_request("acme", 0, 1));
  (void)service.submit(control_request(RequestKind::Train, "acme"));
  const auto responses = service.drain();
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].status, ServeStatus::UnknownTenant);
  EXPECT_EQ(responses[1].status, ServeStatus::Ok);
  EXPECT_EQ(responses[2].status, ServeStatus::InvalidRequest);  // one class
  // Double-train after a successful bring-up answers AlreadyTrained.
  bring_up(service, "acme2");
  (void)service.submit(control_request(RequestKind::Train, "acme2"));
  const auto again = service.drain();
  ASSERT_EQ(again.size(), 1u);
  EXPECT_EQ(again[0].status, ServeStatus::AlreadyTrained);
}

TEST(ClassificationService, ZeroLengthTraceRejected) {
  ClassificationService service(small_config());
  bring_up(service, "acme");
  // Empty trace on classify, missing trace on classify, empty on enroll.
  Request empty_classify;
  empty_classify.kind = RequestKind::Classify;
  empty_classify.tenant = "acme";
  empty_classify.trace = core::Trace({}, sim::TimeNs{0},
                                     sim::milliseconds(35));
  Request missing_classify;
  missing_classify.kind = RequestKind::Classify;
  missing_classify.tenant = "acme";
  Request empty_enroll;
  empty_enroll.kind = RequestKind::Enroll;
  empty_enroll.tenant = "fresh";
  empty_enroll.label = "net-0";
  (void)service.submit(std::move(empty_classify));
  (void)service.submit(std::move(missing_classify));
  (void)service.submit(std::move(empty_enroll));
  const auto responses = service.drain();
  ASSERT_EQ(responses.size(), 3u);
  for (const auto& response : responses) {
    EXPECT_EQ(response.status, ServeStatus::InvalidRequest)
        << status_name(response.status);
  }
  // The empty enroll never opened a namespace.
  EXPECT_EQ(service.tenant("fresh"), nullptr);
}

TEST(ClassificationService, QueueFullRejection) {
  ServiceConfig config = small_config();
  config.queue.capacity = 8;
  config.queue.high_water = 4;
  ClassificationService service(config);
  std::uint64_t accepted = 0;
  std::uint64_t overloaded = 0;
  for (int i = 0; i < 10; ++i) {
    const auto result = service.submit(classify_request("acme", 0, 1));
    if (result.accepted) {
      ++accepted;
    } else {
      EXPECT_EQ(result.status, ServeStatus::Overloaded);
      ++overloaded;
    }
  }
  EXPECT_EQ(accepted, 4u);
  EXPECT_EQ(overloaded, 6u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.submitted, 10u);
  EXPECT_EQ(stats.admitted, 4u);
  EXPECT_EQ(stats.rejected, 6u);
  // Rejected requests never produce responses.
  EXPECT_EQ(service.drain().size(), 4u);
  // Draining reopened admission.
  EXPECT_TRUE(service.submit(classify_request("acme", 0, 2)).accepted);
}

TEST(ClassificationService, CoalescesRunsAndControlFences) {
  ClassificationService service(small_config());
  bring_up(service, "a");
  bring_up(service, "b");
  // Interleaved classify requests for both tenants, then a control fence,
  // then one more classify: 2 sweeps, the first covering 4 rows.
  (void)service.submit(classify_request("a", 0, 11));
  (void)service.submit(classify_request("b", 1, 12));
  (void)service.submit(classify_request("a", 1, 13));
  (void)service.submit(classify_request("b", 0, 14));
  (void)service.submit(control_request(RequestKind::Retire, "b"));
  (void)service.submit(classify_request("a", 0, 15));
  const auto responses = service.tick();
  ASSERT_EQ(responses.size(), 6u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(responses[i].status, ServeStatus::Ok) << i;
    EXPECT_TRUE(responses[i].verdict.known) << i;
  }
  EXPECT_EQ(responses[4].status, ServeStatus::Ok);
  EXPECT_EQ(responses[5].status, ServeStatus::Ok);
  const auto stats = service.stats();
  EXPECT_EQ(stats.sweeps, 2u);
  EXPECT_EQ(stats.coalesced_rows, 5u);
  EXPECT_EQ(service.tenant("a")->classified(), 3u);
  EXPECT_EQ(service.tenant("b")->classified(), 2u);
}

TEST(ClassificationService, MaxBatchBoundsEachTick) {
  ServiceConfig config = small_config();
  config.max_batch = 3;
  ClassificationService service(config);
  for (int i = 0; i < 7; ++i) {
    (void)service.submit(classify_request("ghost", 0, 1));
  }
  EXPECT_EQ(service.tick().size(), 3u);
  EXPECT_EQ(service.tick().size(), 3u);
  EXPECT_EQ(service.tick().size(), 1u);
  EXPECT_EQ(service.now().ns, 3 * config.tick.ns);
}

TEST(ClassificationService, ResponsesBitIdenticalAcrossPoolSizes) {
  struct PoolSizeGuard {
    std::size_t before = util::ThreadPool::global().size();
    ~PoolSizeGuard() { util::ThreadPool::set_global_threads(before); }
  } guard;

  const auto run = [] {
    ClassificationService service(small_config());
    bring_up(service, "a", 3);
    bring_up(service, "b", 2);
    std::vector<Response> all;
    util::Rng rng(0xd1ce);
    for (int burst = 0; burst < 4; ++burst) {
      for (int i = 0; i < 8; ++i) {
        const int cls = static_cast<int>(rng.uniform_below(2));
        (void)service.submit(classify_request(
            rng.uniform_below(2) == 0 ? "a" : "b", cls, 900 + i));
      }
      auto responses = service.tick();
      all.insert(all.end(), responses.begin(), responses.end());
    }
    return all;
  };

  util::ThreadPool::set_global_threads(1);
  const auto serial = run();
  util::ThreadPool::set_global_threads(4);
  const auto parallel = run();
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].id, parallel[i].id) << i;
    EXPECT_EQ(serial[i].status, parallel[i].status) << i;
    EXPECT_EQ(serial[i].verdict.known, parallel[i].verdict.known) << i;
    EXPECT_EQ(serial[i].verdict.model_name, parallel[i].verdict.model_name)
        << i;
    EXPECT_EQ(serial[i].verdict.confidence, parallel[i].verdict.confidence)
        << i;  // exact float equality: bit-identical by contract
    EXPECT_EQ(serial[i].latency().ns, parallel[i].latency().ns) << i;
  }
}

TEST(ClassificationService, DurableModeSurvivesRestart) {
  const std::string dir = ::testing::TempDir() + "service_durable";
  if (util::path_exists(dir)) {
    for (const std::string& name : util::list_dir(dir)) {
      util::remove_file(dir + "/" + name);
    }
  }
  ServiceConfig config = small_config();
  config.durability.dir = dir;

  Response before;
  {
    ClassificationService service(config);
    EXPECT_TRUE(service.storage().enabled);
    EXPECT_FALSE(service.degraded());
    bring_up(service, "acme");
    EXPECT_EQ(service.storage().last_seq, 13u);  // 12 enrolls + 1 train
    (void)service.submit(classify_request("acme", 1, 0xfeed));
    auto responses = service.drain();
    ASSERT_EQ(responses.size(), 1u);
    before = std::move(responses[0]);
    ASSERT_TRUE(before.ok());
  }

  // Reconstruction on the same directory IS recovery — and the recovered
  // tenant classifies the same trace bit-identically.
  ClassificationService recovered(config);
  EXPECT_TRUE(recovered.storage().recovered);
  EXPECT_EQ(recovered.storage().recovered_tenants, 1u);
  EXPECT_EQ(recovered.storage().last_seq, 13u);
  ASSERT_NE(recovered.tenant("acme"), nullptr);
  EXPECT_EQ(recovered.tenant("acme")->state(), TenantSession::State::Serving);
  (void)recovered.submit(classify_request("acme", 1, 0xfeed));
  const auto responses = recovered.drain();
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].status, ServeStatus::Ok);
  EXPECT_EQ(responses[0].verdict.model_name, before.verdict.model_name);
  EXPECT_EQ(responses[0].verdict.confidence, before.verdict.confidence);
  EXPECT_EQ(responses[0].verdict.margin, before.verdict.margin);
}

TEST(ClassificationService, FailedEnrollCreatesNoClassLiveOrReplayed) {
  const std::string dir = ::testing::TempDir() + "service_phantom_class";
  if (util::path_exists(dir)) {
    for (const std::string& name : util::list_dir(dir)) {
      util::remove_file(dir + "/" + name);
    }
  }
  ServiceConfig config = small_config();
  config.durability.dir = dir;
  const auto class_names = [](const ClassificationService& service) {
    const TenantSession* tenant = service.tenant("acme");
    return tenant == nullptr
               ? std::vector<std::string>{}
               : tenant->fingerprinter().class_names();
  };
  {
    ClassificationService service(config);
    (void)service.submit(enroll_request("acme", 0, 1));
    Request ghost = enroll_request("acme", 1, 2);
    ghost.label = "ghost";
    ghost.trace = synthetic_trace(1, 2, 10);  // shorter than the 40 enrolled
    (void)service.submit(std::move(ghost));
    (void)service.submit(control_request(RequestKind::Train, "acme"));
    const auto responses = service.drain();
    ASSERT_EQ(responses.size(), 3u);
    EXPECT_EQ(responses[0].status, ServeStatus::Ok);
    EXPECT_EQ(responses[1].status, ServeStatus::InvalidRequest);
    // One real class: the failed enroll must not make training possible.
    EXPECT_EQ(responses[2].status, ServeStatus::InvalidRequest);
    EXPECT_EQ(class_names(service), std::vector<std::string>{"net-0"});
  }
  // Recovery replays all three journal records, failures included.
  ClassificationService recovered(config);
  EXPECT_TRUE(recovered.storage().recovered);
  EXPECT_EQ(recovered.storage().last_seq, 3u);
  EXPECT_EQ(recovered.storage().recovered_records, 3u);
  EXPECT_EQ(class_names(recovered), std::vector<std::string>{"net-0"});
  EXPECT_EQ(recovered.tenant("acme")->state(),
            TenantSession::State::Enrolling);
}

TEST(ServeTypes, NamesAreStable) {
  EXPECT_EQ(kind_name(RequestKind::Enroll), "enroll");
  EXPECT_EQ(kind_name(RequestKind::Retire), "retire");
  EXPECT_EQ(status_name(ServeStatus::Ok), "ok");
  EXPECT_EQ(status_name(ServeStatus::Overloaded), "overloaded");
  EXPECT_EQ(status_name(ServeStatus::TenantRetired), "tenant-retired");
  EXPECT_EQ(status_name(ServeStatus::InvalidRequest), "invalid-request");
  EXPECT_EQ(status_name(ServeStatus::StorageUnavailable),
            "storage-unavailable");
  // by_status arrays are sized against this; keep them in lockstep.
  EXPECT_EQ(kServeStatusCount,
            static_cast<std::size_t>(ServeStatus::StorageUnavailable) + 1);
}

}  // namespace
}  // namespace amperebleed::serve
