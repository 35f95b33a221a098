#pragma once
// The four workloads. Each builds its inputs from Options::seed, sets up
// (several times, reporting the median), then measures: with
// Options::trace off, one untraced phase of Options::seconds that yields
// the end-to-end metrics; with it on, an untraced and a traced half whose
// ratio is the tracing overhead, and whose traced half yields the
// per-layer metrics.

#include "common.hpp"

namespace perfbench {

Result run_classify_steady(const Options& options);
Result run_churn_durable(const Options& options);
Result run_recover(const Options& options);
Result run_fingerprint_offline(const Options& options);

/// Dispatch on Options::workload; throws std::invalid_argument when unknown.
Result run_workload(const Options& options);

}  // namespace perfbench
