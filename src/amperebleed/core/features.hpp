#pragma once
// Feature engineering for the fingerprinting classifier. The paper feeds the
// (fixed-cadence) hwmon traces to a random forest directly; we keep the raw
// prefix as the feature vector and provide the helpers to assemble labelled
// datasets and to evaluate shorter observation windows by truncation.

#include <vector>

#include "amperebleed/core/preprocess.hpp"
#include "amperebleed/core/trace.hpp"
#include "amperebleed/ml/dataset.hpp"

namespace amperebleed::core {

/// Number of samples that fit in `duration` at `period` (floor).
std::size_t samples_for_duration(sim::TimeNs duration, sim::TimeNs period);

/// Append a labelled trace (first `feature_count` samples) to a dataset.
void add_trace(ml::Dataset& dataset, const Trace& trace, int label,
               std::size_t feature_count);

/// Gap-aware variant: reconstruct any gap samples per `policy` before
/// truncation, so holey traces never leak 0.0 placeholders into features.
/// A gapless trace takes the exact plain-add path (bit-identical features).
/// GapPolicy::Drop is rejected — feature vectors are fixed-length.
void add_trace(ml::Dataset& dataset, const Trace& trace, int label,
               std::size_t feature_count, GapPolicy policy);

/// Assemble a dataset from per-label trace groups, using each trace's first
/// `feature_count` samples. Throws if any trace is too short.
ml::Dataset build_dataset(const std::vector<std::vector<Trace>>& traces_by_label,
                          std::size_t feature_count);

}  // namespace amperebleed::core
