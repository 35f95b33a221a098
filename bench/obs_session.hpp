#pragma once
// Shared observability plumbing for the bench binaries. Every bench accepts
// the same flags:
//
//   --obs                  enable instrumentation without writing snapshots
//   --quality              enable obs AND the quality layer (drift + data-
//                          quality monitors, the /quality endpoint, and
//                          quality_*/drift_* run-record keys). Quality is
//                          strictly opt-in: plain --obs leaves it off.
//   --metrics-out PATH     enable obs; write a metrics snapshot (JSON)
//   --trace-out PATH       enable obs; write a Chrome trace_event JSON
//   --audit-out PATH       enable obs; write the hwmon access-audit log JSON
//   --profile-out PATH     enable obs; write a collapsed-stack profile
//                          folded from the completed trace spans (input
//                          format of flame-graph renderers)
//   --serve-port N         enable obs; serve live telemetry over HTTP while
//                          the bench runs: GET /metrics (Prometheus text),
//                          /healthz, /runrecord, /flamegraph, /slo. N=0
//                          picks a free port (printed to stderr).
//   --snapshot-out PATH    enable obs; rewrite the metrics snapshot (the
//                          --metrics-out JSON) to PATH every 500 ms while
//                          running and once at finish (atomic rename). A
//                          bad PATH fails at start-up.
//   --record-out PATH      run-record path (default BENCH_<name>.json)
//   --no-record            skip the run record entirely
//   --threads N            size the global util::ThreadPool to N executors
//                          (N=1 forces exact serial execution). Without the
//                          flag the pool honours AMPEREBLEED_THREADS, else
//                          hardware concurrency. Results are bit-identical
//                          at any setting; only wall-clock changes.
//
// Every -out file is written through util::atomic_write_file once at
// start-up, so a bad PATH fails before the experiment runs, and again at
// finish. --serve-port also serves /quality (drift + data quality). With
// none of the obs flags present, instrumentation stays disabled (the
// library's default), no snapshot or HTTP thread is ever started, and the
// bench's stdout/CSV output is bit-identical to an uninstrumented build;
// only the small BENCH_<name>.json run record is written. Usage:
//
//   util::CliArgs args(argc, argv);
//   bench::ObsSession session(args, "fig2_characterization");
//   ... experiment; session.record().set_number("snr_db", snr) ...
//   session.finish();   // also runs from the destructor

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stop_token>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "amperebleed/obs/http_exporter.hpp"
#include "amperebleed/obs/obs.hpp"
#include "amperebleed/obs/quality.hpp"
#include "amperebleed/obs/run_record.hpp"
#include "amperebleed/util/cli.hpp"
#include "amperebleed/util/fs.hpp"
#include "amperebleed/util/thread_pool.hpp"

namespace amperebleed::bench {

class ObsSession {
 public:
  ObsSession(const util::CliArgs& args, std::string bench_name)
      : record_(std::move(bench_name)),
        record_out_(args.get_string("record-out", "")),
        write_record_(!args.has("no-record")) {
    // Pool sizing first, before any experiment code can touch the pool:
    // --threads beats AMPEREBLEED_THREADS beats hardware concurrency. Only
    // an explicit flag lands in the run record — the effective pool size is
    // host-dependent, and baking it into default records would make the
    // committed perf baseline compare thread counts across machines.
    if (args.has("threads")) {
      util::ThreadPool::set_global_threads(util::ThreadPool::parse_size(
          "--threads", args.get_string("threads", "")));
      record_.set_integer(
          "pool_threads",
          static_cast<std::int64_t>(util::ThreadPool::global().size()));
    }
    // The artifact table: one {path, render} row per -out flag given.
    const auto metrics_row = [&args](const char* flag) {
      const std::string path = args.get_string(flag, "");
      return Output{path, [] { return obs::metrics().snapshot_text(); }};
    };
    const Output snapshot = metrics_row("snapshot-out");
    outputs_ = {metrics_row("metrics-out"),
                snapshot,
                {args.get_string("trace-out", ""), trace_text},
                {args.get_string("audit-out", ""), audit_text},
                {args.get_string("profile-out", ""), profile_text}};
    std::erase_if(outputs_, [](const Output& row) { return row.path.empty(); });

    const bool want_serve = args.has("serve-port");
    const bool want_quality = args.has("quality");
    const bool want_obs =
        args.has("obs") || !outputs_.empty() || want_serve || want_quality;
    if (!want_obs) return;
    obs::init(obs::ObsConfig{.enabled = true, .quality = want_quality});

    // The bench root span: every stage span, parallel_for task span and
    // fault instant recorded on this thread (or captured into pool tasks)
    // nests under it, giving the trace and flame graph a single root.
    root_span_ = obs::span("bench." + record_.name(), "bench");

    // Default SLO objectives, evaluated in virtual time by the sampler.
    // acquire_virtual_latency is fully deterministic (virtual ns per
    // sample; retry backoff from injected faults shows up here);
    // classify_latency meters the wall-clock online-classify stage.
    obs::slos().add({.name = "acquire_virtual_latency",
                     .histogram = "sampler.sample_acquire_vns",
                     .threshold = 1.0e6,   // 1 ms of virtual time per sample
                     .target = 0.99});
    obs::slos().add({.name = "classify_latency",
                     .histogram = "pipeline.stage.classify_ns",
                     .threshold = 5.0e7,   // 50 ms wall per classify unit
                     .target = 0.95});

    // First write of every artifact, on the main thread, so a bad path
    // throws before the experiment runs.
    write_outputs();

    // Live export: threads only when explicitly requested, so the default
    // path never starts one.
    if (!snapshot.path.empty()) {
      snapshot_thread_ = std::jthread(
          [snapshot](const std::stop_token& stop) {
            snapshot_loop(stop, snapshot);
          });
    }
    if (want_serve) {
      obs::HttpExporter::Config http_config;
      http_config.port = static_cast<int>(args.get_int("serve-port", 0));
      http_ = std::make_unique<obs::HttpExporter>(obs::metrics(),
                                                  http_config);
      http_->route("/runrecord", kJson,
                   [this] { return json_text(record_.to_json()); });
      http_->route("/flamegraph", "text/plain; charset=utf-8", profile_text);
      http_->route("/slo", kJson, [] {
        return json_text(obs::slos().to_json(obs::metrics()));
      });
      http_->route("/quality", kJson,
                   [] { return json_text(obs::quality_hub().to_json()); });
      http_->start();
      // stderr so bench stdout stays exactly the experiment's output.
      std::fprintf(stderr,
                   "obs: serving /metrics /healthz /runrecord /flamegraph "
                   "/slo /quality on http://127.0.0.1:%d\n",
                   http_->port());
    }
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;
  ~ObsSession() { finish(); }

  /// The bench's run record: add headline numbers as the experiment goes.
  [[nodiscard]] obs::RunRecord& record() { return record_; }

  /// The live HTTP endpoint, when --serve-port was given (else nullptr).
  [[nodiscard]] obs::HttpExporter* http() { return http_.get(); }

  /// Write every artifact row a last time and the run record once, then
  /// disable obs again.
  void finish() {
    if (finished_) return;
    finished_ = true;
    // Stop the live readers first, so the final snapshots below are the
    // last writes.
    if (http_) http_->stop();
    if (snapshot_thread_.joinable()) {
      snapshot_thread_.request_stop();
      snapshot_thread_.join();
    }
    // Close the bench root span before any trace-derived output: the
    // collapsed-stack folder and the Chrome trace only see finished spans.
    root_span_.finish();
    if (obs::metrics_enabled()) {
      // Fold a few universal counters into the run record so the BENCH_*
      // files are comparable across benches without opening the snapshots.
      const auto& m = obs::metrics();
      record_.set_integer(
          "obs_hwmon_reads_ok",
          static_cast<std::int64_t>(m.counter_value("hwmon.vfs.read.ok")));
      record_.set_integer(
          "obs_hwmon_reads_denied",
          static_cast<std::int64_t>(
              m.counter_value("hwmon.vfs.read.permission-denied")));
      record_.set_integer(
          "obs_sampler_reads",
          static_cast<std::int64_t>(m.counter_value("sampler.reads")));

      // Per-stage pipeline attribution from the stage histograms:
      // informational keys (prefixed stage_ / slo_), excluded from the
      // bench_compare perf gate. A stage that never ran reports zeros.
      static constexpr obs::Stage kStages[] = {
          obs::Stage::Acquire, obs::Stage::Preprocess, obs::Stage::Features,
          obs::Stage::Classify};
      for (const obs::Stage stage : kStages) {
        const std::string name = obs::stage_name(stage);
        const obs::Histogram* h =
            m.find_histogram("pipeline.stage." + name + "_ns");
        const std::string prefix = "stage_" + name;
        record_.set_integer(
            prefix + "_count",
            h == nullptr ? 0 : static_cast<std::int64_t>(h->count()));
        record_.set_number(prefix + "_total_ms",
                           h == nullptr ? 0.0 : h->sum() / 1e6);
        record_.set_number(prefix + "_p50_ms",
                           h == nullptr ? 0.0 : h->quantile(0.5) / 1e6);
      }
      // Final SLO evaluation at the end of the virtual timeline.
      for (const auto& status : obs::slos().evaluate_all(obs::metrics())) {
        const std::string prefix = "slo_" + status.name;
        record_.set_number(prefix + "_compliance", status.compliance);
        record_.set_number(prefix + "_fast_burn", status.fast_burn);
        record_.set_number(prefix + "_slow_burn", status.slow_burn);
        record_.set_integer(prefix + "_breached", status.breached ? 1 : 0);
      }
    }
    if (obs::quality_enabled()) {
      // Quality telemetry: informational keys (prefixed quality_ / drift_),
      // excluded from the bench_compare perf gate like stage_/slo_.
      const auto& dq = obs::quality_hub().data_quality();
      double gap_max = 0.0;
      double clip_max = 0.0;
      std::int64_t frozen = 0;
      std::int64_t traces = 0;
      for (const auto& channel : dq.channels()) {
        gap_max = std::max(gap_max, channel.gap_fraction());
        clip_max = std::max(clip_max, channel.clip_rate());
        if (channel.frozen_events > 0) ++frozen;
        traces += static_cast<std::int64_t>(channel.traces);
      }
      record_.set_integer("quality_traces", traces);
      record_.set_number("quality_gap_fraction_max", gap_max);
      record_.set_number("quality_clip_rate_max", clip_max);
      record_.set_integer("quality_frozen_channels", frozen);
      record_.set_integer(
          "quality_gap_filled_total",
          static_cast<std::int64_t>(dq.gap_filled_total()));
    }
    write_outputs();
    if (write_record_) {
      record_.write(record_out_.empty() ? record_.default_path()
                                        : record_out_);
    }
    if (obs::enabled()) obs::shutdown();
  }

 private:
  /// One artifact file: where it goes and what goes in it.
  struct Output {
    std::string path;
    std::function<std::string()> render;
    void write() const { util::atomic_write_file(path, render()); }
  };

  static constexpr std::chrono::milliseconds kSnapshotInterval{500};
  static constexpr const char* kJson = "application/json";

  // Renderers shared by the artifact files and the HTTP routes.
  static std::string json_text(const util::Json& doc) {
    return doc.dump(2) + "\n";
  }
  static std::string trace_text() {
    return obs::tracer().to_chrome_json().dump(1) + "\n";
  }
  static std::string audit_text() {
    return json_text(obs::audit_log().to_json());
  }
  static std::string profile_text() {
    return obs::collapsed_stacks_text(obs::tracer());
  }

  void write_outputs() const {
    for (const Output& row : outputs_) row.write();
  }

  /// Rewrites the --snapshot-out row every kSnapshotInterval until
  /// stopped. A failed write is reported once and ends the periodic
  /// writes; the final write in finish() then throws like the other rows.
  static void snapshot_loop(const std::stop_token& stop, const Output& row) {
    std::mutex mu;
    std::condition_variable_any wake;  // only a stop request notifies it
    std::unique_lock lock(mu);
    while (!wake.wait_for(lock, stop, kSnapshotInterval,
                          [&stop] { return stop.stop_requested(); })) {
      try {
        row.write();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "obs: periodic --snapshot-out stopped: %s\n",
                     e.what());
        return;
      }
    }
  }

  obs::RunRecord record_;
  std::vector<Output> outputs_;
  std::string record_out_;
  std::unique_ptr<obs::HttpExporter> http_;
  obs::ScopedSpan root_span_;  // inert unless obs was enabled
  bool write_record_ = true;
  bool finished_ = false;
  // Last member: destroyed (stopped and joined) first if the constructor
  // throws after starting it.
  std::jthread snapshot_thread_;
};

}  // namespace amperebleed::bench
