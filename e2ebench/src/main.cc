// nestra end-to-end benchmark: SQL text in, result table out.
//
//   nestra_e2ebench --workload <paper_serial|nulls_parallel|oltp_sessions|all>
//                   [--seed N] [--seconds S] [--trace 0|1]
//
// Prints what it ran and every metric with its unit, then, as the last line
// of stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics of the closed loop; --trace 1
// the per-layer metrics of the traced run. See e2ebench/README.md.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "runner.h"
#include "workloads.h"

namespace {

using nestra::e2ebench::Metric;
using nestra::e2ebench::RunOptions;
using nestra::e2ebench::RunResult;

int Usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: nestra_e2ebench --workload "
               "<paper_serial|nulls_parallel|oltp_sessions|all> [--seed N] "
               "[--seconds S] [--trace 0|1]\n",
               why);
  return 2;
}

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc % 2 == 0) return Usage("flags take one value each");
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) return Usage("--workload is required");
  if (!(options.seconds >= 0)) return Usage("--seconds must be >= 0");

  std::vector<std::string> workloads = {options.workload};
  if (options.workload == "all") workloads = nestra::e2ebench::WorkloadNames();

  bool ok = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> all_metrics;
  for (const std::string& name : workloads) {
    RunOptions run = options;
    run.workload = name;
    nestra::Result<RunResult> result = nestra::e2ebench::RunWorkload(run);
    if (!result.ok()) {
      std::fprintf(stderr, "e2ebench: %s failed: %s\n", name.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    for (const std::string& line : result->info) {
      std::printf("[%s] %s\n", name.c_str(), line.c_str());
    }
    for (const Metric& m : result->metrics) {
      std::printf("[%s] %-34s %16.6f %s\n", name.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
      ok = ok && std::isfinite(m.value);
      Metric named = m;
      if (workloads.size() > 1) named.name = name + "." + m.name;
      all_metrics.push_back(named);
    }
    if (result->failed > 0) {
      std::printf("[%s] first failure: %s\n", name.c_str(),
                  result->first_failure.c_str());
    }
    attempted += result->attempted;
    failed += result->failed;
    std::fflush(stdout);
  }
  PrintJson(ok && failed == 0, attempted, failed, all_metrics);
  return 0;
}
