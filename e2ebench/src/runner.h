#ifndef NESTRA_E2EBENCH_RUNNER_H_
#define NESTRA_E2EBENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "stats.h"

namespace nestra {
namespace e2ebench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics from the closed loop. true: the traced run —
  /// per-layer metrics from timed calls into each layer.
  bool trace = false;
};

struct RunResult {
  std::vector<std::string> info;  // human-readable lines about the run
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;  // errors + answers differing from the oracle
  std::string first_failure;
};

/// Sets the workload up, computes the oracle's answers, runs it for
/// `seconds`, and returns its metrics.
Result<RunResult> RunWorkload(const RunOptions& options);

}  // namespace e2ebench
}  // namespace nestra

#endif  // NESTRA_E2EBENCH_RUNNER_H_
