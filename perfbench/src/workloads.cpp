#include "workloads.hpp"

#include <stdexcept>

namespace perfbench {

Result run_workload(const Options& options) {
  if (options.workload == "classify_steady") {
    return run_classify_steady(options);
  }
  if (options.workload == "churn_durable") return run_churn_durable(options);
  if (options.workload == "recover") return run_recover(options);
  if (options.workload == "fingerprint_offline") {
    return run_fingerprint_offline(options);
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
