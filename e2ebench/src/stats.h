#ifndef NESTRA_E2EBENCH_STATS_H_
#define NESTRA_E2EBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/table.h"

namespace nestra {
namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// CPU time consumed by the whole process / the calling thread, in ms.
double ProcessCpuMillis();
double ThreadCpuMillis();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Order-insensitive fingerprint of a result: HashTable of the rows sorted
/// under the total order, so the engine and the nested-iteration oracle
/// agree whenever their answers are equal as bags.
uint64_t CanonicalHash(const Table& table);

/// Fixed engine-independent CPU kernel (a seeded sort plus a hash-table
/// build over the same keys). Its wall time tells a slow host apart from a
/// slow engine when two sets of runs disagree.
double HostReferenceMillis();

/// One slice of a second fixed engine-independent kernel: a 1,024-key sort
/// and 2,048 random reads from a 32 MB table (L3 cache and memory), about
/// 0.1 ms. Timed between statements, it measures how fast the host runs
/// compute and memory-bound work at that moment.
void ReferenceSlice();

/// Wall time of one ReferenceSlice at the host speed the end-to-end timing
/// figures are scaled to: about the median slice time on a 4-vCPU Intel
/// Xeon (Emerald Rapids) VM.
constexpr double kReferenceSliceNominalMs = 0.11;

/// One named metric as printed and reported in the result JSON.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

}  // namespace e2ebench
}  // namespace nestra

#endif  // NESTRA_E2EBENCH_STATS_H_
