#include "stats.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <unordered_map>

#include "server/harness.h"

namespace nestra {
namespace e2ebench {

namespace {

double CpuMillis(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

}  // namespace

double ProcessCpuMillis() { return CpuMillis(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuMillis() { return CpuMillis(CLOCK_THREAD_CPUTIME_ID); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

uint64_t CanonicalHash(const Table& table) { return HashTable(table.Sorted()); }

double HostReferenceMillis() {
  constexpr size_t kKeys = 1 << 16;
  constexpr int kRepeats = 7;
  std::vector<double> times;
  for (int r = 0; r < kRepeats; ++r) {
    std::mt19937_64 rng(20050614);
    std::vector<uint64_t> keys(kKeys);
    for (uint64_t& k : keys) k = rng();
    const Clock::time_point start = Clock::now();
    std::sort(keys.begin(), keys.end());
    std::unordered_map<uint64_t, uint32_t> table;
    table.reserve(kKeys);
    for (size_t i = 0; i < kKeys; ++i) {
      table.emplace(keys[i], static_cast<uint32_t>(i));
    }
    times.push_back(MillisSince(start));
  }
  return Median(times);
}

namespace {

uint64_t XorShift(uint64_t* x) {
  *x ^= *x << 13;
  *x ^= *x >> 7;
  *x ^= *x << 17;
  return *x;
}

// 32 MB of fixed pseudo-random keys, 16 times the L2 cache of the host the
// benchmark was tuned on: probes into it wait on the shared L3 cache and
// memory, as the engine's joins over bench-scale tables do.
const std::vector<uint64_t>& ReferenceTable() {
  static const std::vector<uint64_t> table = [] {
    std::vector<uint64_t> keys(size_t{1} << 22);
    uint64_t x = 20050614;
    for (uint64_t& k : keys) k = XorShift(&x);
    return keys;
  }();
  return table;
}

}  // namespace

void ReferenceSlice() {
  constexpr size_t kSortKeys = 1024;
  constexpr int kProbes = 2048;
  const std::vector<uint64_t>& table = ReferenceTable();
  // Continues across calls, so every slice probes different cache lines.
  thread_local uint64_t x = 0x9E3779B97F4A7C15ull;
  uint64_t keys[kSortKeys];
  for (uint64_t& k : keys) k = XorShift(&x);
  std::sort(keys, keys + kSortKeys);
  uint64_t h = keys[kSortKeys / 2];
  for (int i = 0; i < kProbes; ++i) {
    h += table[XorShift(&x) & (table.size() - 1)];
  }
  static volatile uint64_t sink;
  sink = h;
}

}  // namespace e2ebench
}  // namespace nestra
