// Tests for the process-wide telemetry subsystem (src/telemetry/): the
// metrics registry, the Chrome trace_event sink, the slow-query log, and
// their engine integration contracts —
//
//  * deterministic counters are bit-identical across num_threads {1,2,8}
//    and row-vs-vectorized engines for the same query sequence,
//  * the trace JSON is well-formed (parsed back here with a tiny JSON
//    reader) and puts pool-task spans on worker-thread tracks,
//  * the slow-query log fires strictly above its threshold,
//  * disabled telemetry never reads the clock on the per-row path and
//    never moves a counter.
//
// Telemetry state is process-global, so every test restores "all off" on
// exit; the suite is safe to run in any order but not concurrently with
// other telemetry-enabled tests in one process (it is its own binary).

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "exec/exec_node.h"
#include "nra/executor.h"
#include "nra/explain.h"
#include "nra/profile.h"
#include "json_checker.h"
#include "query_generator.h"
#include "storage/catalog.h"
#include "telemetry/engine_metrics.h"
#include "telemetry/metrics.h"
#include "telemetry/slow_query.h"
#include "telemetry/trace.h"
#include "test_util.h"

namespace nestra {
namespace {

using telemetry::MetricsRegistry;
using testing_util::JsonChecker;

// Restores the all-off telemetry state however the test exits.
struct TelemetryOffGuard {
  ~TelemetryOffGuard() {
    telemetry::SetMetricsEnabled(false);
    telemetry::UninstallTraceSink();
    telemetry::SetSlowQuerySink({});
    MetricsRegistry::Global().ResetValues();
  }
};

// ---------- registry unit tests ----------

TEST(MetricsRegistryTest, CounterMergesConcurrentAdds) {
  TelemetryOffGuard guard;
  telemetry::SetMetricsEnabled(true);
  telemetry::Counter* c = MetricsRegistry::Global().GetCounter(
      "test_concurrent_total", "", "test", false);
  c->ResetValue();
  constexpr int kThreads = 8;
  constexpr int kAdds = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([c] {
      for (int i = 0; i < kAdds; ++i) c->Add(1);
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c->Value(), kThreads * kAdds);
}

TEST(MetricsRegistryTest, DisabledCounterDoesNotMove) {
  TelemetryOffGuard guard;
  telemetry::SetMetricsEnabled(false);
  telemetry::Counter* c = MetricsRegistry::Global().GetCounter(
      "test_disabled_total", "", "test", false);
  c->ResetValue();
  c->Add(5);
  EXPECT_EQ(c->Value(), 0);
  telemetry::SetMetricsEnabled(true);
  c->Add(5);
  EXPECT_EQ(c->Value(), 5);
}

TEST(MetricsRegistryTest, GaugeKeepsMax) {
  TelemetryOffGuard guard;
  telemetry::SetMetricsEnabled(true);
  telemetry::Gauge* g = MetricsRegistry::Global().GetGauge(
      "test_peak", "", "test", false);
  g->ResetValue();
  g->UpdateMax(3);
  g->UpdateMax(10);
  g->UpdateMax(7);
  EXPECT_EQ(g->Value(), 10);
  g->Set(2);
  EXPECT_EQ(g->Value(), 2);
}

TEST(MetricsRegistryTest, HistogramBucketsAreCumulative) {
  TelemetryOffGuard guard;
  telemetry::SetMetricsEnabled(true);
  telemetry::Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test_latency_ms", "", "test", {1.0, 10.0});
  h->ResetValue();
  h->Observe(0.5);
  h->Observe(5);
  h->Observe(50);
  const std::vector<int64_t> counts = h->CumulativeCounts();
  ASSERT_EQ(counts.size(), 3u);  // le=1, le=10, +Inf
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 3);
  EXPECT_EQ(h->Count(), 3);
  EXPECT_DOUBLE_EQ(h->Sum(), 55.5);
}

TEST(MetricsRegistryTest, SameNameAndLabelsReturnsSameMetric) {
  TelemetryOffGuard guard;
  MetricsRegistry& reg = MetricsRegistry::Global();
  EXPECT_EQ(reg.GetCounter("test_dedup_total", "k=\"a\"", "test", false),
            reg.GetCounter("test_dedup_total", "k=\"a\"", "test", false));
  EXPECT_NE(reg.GetCounter("test_dedup_total", "k=\"a\"", "test", false),
            reg.GetCounter("test_dedup_total", "k=\"b\"", "test", false));
}

TEST(MetricsRegistryTest, PrometheusAndJsonExposition) {
  TelemetryOffGuard guard;
  telemetry::SetMetricsEnabled(true);
  MetricsRegistry::Global().ResetValues();
  telemetry::Metrics().queries_total->Add(3);
  telemetry::Metrics().query_ms->Observe(4.2);

  const std::string prom = telemetry::DumpMetricsPrometheus();
  EXPECT_NE(prom.find("# HELP nestra_queries_total"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE nestra_queries_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("nestra_queries_total 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE nestra_query_ms histogram"), std::string::npos);
  EXPECT_NE(prom.find("nestra_query_ms_bucket{le=\"5\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("nestra_query_ms_count 1"), std::string::npos);
  // Phase-labelled families render their label set.
  EXPECT_NE(prom.find("nestra_phase_rows_total{phase=\"nest\"}"),
            std::string::npos);

  const std::string json = telemetry::DumpMetricsJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"schema\":\"nestra-metrics-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"nestra_queries_total\""),
            std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
}

TEST(MetricsRegistryTest, PhaseLabelsMatchQueryPhaseLabel) {
  // telemetry/ sits below exec/ in the link order, so the phase label
  // strings are duplicated there; this pins them together.
  ASSERT_EQ(telemetry::kNumPhases, 5);
  for (int p = 0; p < telemetry::kNumPhases; ++p) {
    EXPECT_STREQ(telemetry::kPhaseLabels[p],
                 QueryPhaseLabel(static_cast<QueryPhase>(p)))
        << "phase " << p;
  }
}

TEST(MetricsRegistryTest, PrometheusLabelEscapesValue) {
  EXPECT_EQ(telemetry::PrometheusLabel("session", "s1"), "session=\"s1\"");
  EXPECT_EQ(telemetry::PrometheusLabel("q", "a\"b\\c\nd"),
            "q=\"a\\\"b\\\\c\\nd\"");
  // Round trip through the exposition: a hostile label value renders as one
  // sample line with the escapes intact.
  TelemetryOffGuard guard;
  telemetry::SetMetricsEnabled(true);
  telemetry::Counter* c = MetricsRegistry::Global().GetCounter(
      "test_escaped_total", telemetry::PrometheusLabel("q", "x\"y\\z\nw"),
      "test", false);
  c->ResetValue();
  c->Add(1);
  const std::string prom = telemetry::DumpMetricsPrometheus();
  EXPECT_NE(prom.find("test_escaped_total{q=\"x\\\"y\\\\z\\nw\"} 1"),
            std::string::npos)
      << prom;
}

TEST(MetricsRegistryTest, HistogramEdgeValuesLandInTheirBucket) {
  // Prometheus `le` buckets are inclusive: an observation exactly at a
  // bound counts in that bound's bucket, not the next one up.
  TelemetryOffGuard guard;
  telemetry::SetMetricsEnabled(true);
  telemetry::Histogram* h = MetricsRegistry::Global().GetHistogram(
      "test_edges_ms", "", "test", {1.0, 10.0, 100.0});
  h->ResetValue();
  h->Observe(1.0);
  h->Observe(10.0);
  h->Observe(100.0);
  const std::vector<int64_t> counts = h->CumulativeCounts();
  ASSERT_EQ(counts.size(), 4u);  // le=1, le=10, le=100, +Inf
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 3);
  EXPECT_EQ(counts[3], 3);  // nothing past the last bound
  // The next representable value past a bound spills to the next bucket.
  h->Observe(std::nextafter(10.0, 1e18));
  EXPECT_EQ(h->CumulativeCounts()[1], 2);
  EXPECT_EQ(h->CumulativeCounts()[2], 4);
}

TEST(MetricsRegistryTest, EmptyRegistryDumpsAreWellFormed) {
  // A freshly constructed registry renders valid, empty expositions — a
  // scrape endpoint can come up before the first metric registers.
  MetricsRegistry reg;
  EXPECT_EQ(reg.ToPrometheusText(), "");
  const std::string json = reg.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_EQ(json, "{\"schema\":\"nestra-metrics-v1\",\"metrics\":[]}");
}

// ---------- engine integration: determinism contract ----------

TEST(TelemetryEngineTest, DeterministicCountersAcrossThreadsAndEngines) {
  TelemetryOffGuard guard;
  Catalog catalog;
  testing_util::QueryGenerator gen(20260807);
  gen.PopulateTables(&catalog);
  std::vector<std::string> queries;
  for (int i = 0; i < 12; ++i) queries.push_back(gen.RandomQuery());

  telemetry::SetMetricsEnabled(true);
  std::map<std::string, double> baseline;
  std::string baseline_config;
  for (const int threads : {1, 2, 8}) {
    for (const bool vectorized : {false, true}) {
      MetricsRegistry::Global().ResetValues();
      NraOptions options;
      options.num_threads = threads;
      options.vectorized = vectorized;
      NraExecutor exec(catalog, options);
      for (const std::string& sql : queries) {
        const Result<Table> result = exec.ExecuteSql(sql);
        ASSERT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
      }
      const std::map<std::string, double> values =
          MetricsRegistry::Global().DeterministicValues();
      const std::string config = "threads=" + std::to_string(threads) +
                                 " vectorized=" +
                                 (vectorized ? "true" : "false");
      if (baseline.empty()) {
        baseline = values;
        baseline_config = config;
        EXPECT_EQ(values.at("nestra_queries_total"),
                  static_cast<double>(queries.size()));
        EXPECT_GT(values.at("nestra_rows_out_total"), 0);
        EXPECT_GT(values.at("nestra_plans_verified_total"), 0);
        EXPECT_GT(values.at("nestra_phase_stages_total{phase=\"unnest-join\"}"),
                  0);
      } else {
        EXPECT_EQ(values, baseline) << config << " vs " << baseline_config;
      }
    }
  }
}

TEST(TelemetryEngineTest, VerifyFailureCountsAsErrorAndFailure) {
  TelemetryOffGuard guard;
  Catalog catalog;
  testing_util::RegisterPaperRelations(&catalog);
  telemetry::SetMetricsEnabled(true);
  MetricsRegistry::Global().ResetValues();
  NraExecutor exec(catalog, NraOptions::Optimized());
  // Unknown column -> binder error, counted once by the SQL entry point.
  const Result<Table> bad = exec.ExecuteSql("select nope from r");
  EXPECT_FALSE(bad.ok());
  const std::map<std::string, double> values =
      MetricsRegistry::Global().DeterministicValues();
  EXPECT_EQ(values.at("nestra_query_errors_total"), 1);
  EXPECT_EQ(values.at("nestra_queries_total"), 0);
}

// ---------- trace sink ----------

TEST(TelemetryTraceTest, TraceJsonIsWellFormedWithPoolTaskSpans) {
  TelemetryOffGuard guard;
  const std::string path = ::testing::TempDir() + "nestra_trace_test.json";
  telemetry::InstallTraceSink(path);
  ASSERT_TRUE(telemetry::TraceEnabled());

  Catalog catalog;
  testing_util::RegisterPaperRelations(&catalog);
  NraOptions options;
  options.num_threads = 8;
  NraExecutor exec(catalog, options);
  ASSERT_OK(
      exec.ExecuteSql(
              "select a from r where exists (select e from s where e = a)")
          .status());
  // The tiny paper relations may not fan out; force pool-task spans so the
  // worker-track assertion is deterministic. The first unit holds the
  // calling thread until a second thread has entered the loop: the caller
  // cannot run its own queued helpers meanwhile, so a pool worker must pick
  // one up — freshly spawned workers would otherwise often lose the race to
  // a caller that finishes every unit and drains its helpers inline.
  std::atomic<int> entered{0};
  ParallelForEach(16, 4, [&entered](int64_t) {
    entered.fetch_add(1);
    while (entered.load() < 2) std::this_thread::yield();
  });

  telemetry::FlushTrace();
  telemetry::UninstallTraceSink();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  EXPECT_TRUE(JsonChecker(text).Valid()) << text;
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);

  // One event per line: collect (name -> tids) for the complete events and
  // the thread names from the metadata events.
  std::map<std::string, std::set<int>> span_tids;
  std::set<int> worker_tids;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    auto field = [&line](const std::string& key) -> std::string {
      const std::string probe = "\"" + key + "\":";
      const size_t at = line.find(probe);
      if (at == std::string::npos) return "";
      size_t begin = at + probe.size();
      size_t end = begin;
      if (line[begin] == '"') {
        ++begin;
        end = line.find('"', begin);
      } else {
        while (end < line.size() && line[end] != ',' && line[end] != '}') {
          ++end;
        }
      }
      return line.substr(begin, end - begin);
    };
    if (line.find("\"ph\":\"X\"") != std::string::npos) {
      EXPECT_NE(line.find("\"ts\":"), std::string::npos) << line;
      EXPECT_NE(line.find("\"dur\":"), std::string::npos) << line;
      span_tids[field("name")].insert(std::atoi(field("tid").c_str()));
    } else if (line.find("\"ph\":\"M\"") != std::string::npos &&
               line.find("pool-worker") != std::string::npos) {
      worker_tids.insert(std::atoi(field("tid").c_str()));
    }
  }

  for (const char* required :
       {"parse", "plan", "verify", "execute", "finish", "pool-task"}) {
    EXPECT_TRUE(span_tids.count(required)) << "missing span: " << required;
  }
  // Pool-task spans sit on pool-worker tracks, not on the query thread.
  ASSERT_FALSE(worker_tids.empty());
  for (const int tid : span_tids["pool-task"]) {
    EXPECT_TRUE(worker_tids.count(tid)) << "pool-task on tid " << tid;
  }
  for (const int tid : span_tids["parse"]) {
    EXPECT_FALSE(worker_tids.count(tid)) << "parse on worker tid " << tid;
  }
  std::remove(path.c_str());
}

TEST(TelemetryTraceTest, OptionsTracePathInstallsSink) {
  TelemetryOffGuard guard;
  const std::string path = ::testing::TempDir() + "nestra_trace_opts.json";
  Catalog catalog;
  testing_util::RegisterPaperRelations(&catalog);
  NraOptions options;
  options.trace_path = path;
  NraExecutor exec(catalog, options);
  EXPECT_FALSE(telemetry::TraceEnabled());
  ASSERT_OK(exec.ExecuteSql("select a from r").status());
  EXPECT_TRUE(telemetry::TraceEnabled());
  telemetry::FlushTrace();
  telemetry::UninstallTraceSink();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(JsonChecker(buffer.str()).Valid());
  EXPECT_NE(buffer.str().find("\"name\":\"execute\""), std::string::npos);
  std::remove(path.c_str());
}

// ---------- slow-query log ----------

TEST(TelemetrySlowQueryTest, JsonLineEscapesAndLabelsEngine) {
  telemetry::SlowQueryRecord rec;
  rec.sql = "select \"x\"\nfrom r";
  rec.total_ms = 12.5;
  rec.join_ms = 7.25;
  rec.nest_select_ms = 3;
  rec.output_rows = 42;
  rec.num_threads = 4;
  rec.vectorized = true;
  const std::string line = telemetry::SlowQueryJsonLine(rec);
  EXPECT_TRUE(JsonChecker(line).Valid()) << line;
  EXPECT_NE(line.find("\"event\":\"slow_query\""), std::string::npos);
  EXPECT_NE(line.find("\\\"x\\\"\\nfrom"), std::string::npos);
  EXPECT_NE(line.find("\"engine\":\"vectorized\""), std::string::npos);
  EXPECT_NE(line.find("\"rows\":42"), std::string::npos);
  EXPECT_NE(line.find("\"threads\":4"), std::string::npos);
  rec.vectorized = false;
  EXPECT_NE(telemetry::SlowQueryJsonLine(rec).find("\"engine\":\"row\""),
            std::string::npos);
}

TEST(TelemetrySlowQueryTest, JsonLineSchemaIsPinned) {
  // Pins the whole line byte-for-byte to the schema documented in
  // bench/README.md: downstream parsers key on exact field names and order,
  // so a rename, reorder, or dropped field must break here first.
  telemetry::SlowQueryRecord rec;
  rec.session = "s7";
  rec.sql = "SELECT 1";
  rec.total_ms = 12.5;
  rec.join_ms = 3.25;
  rec.nest_select_ms = 1.125;
  rec.output_rows = 42;
  rec.peak_mem_bytes = 65536;
  rec.num_threads = 8;
  rec.vectorized = true;
  rec.ok = true;
  const std::string line = telemetry::SlowQueryJsonLine(rec);
  EXPECT_TRUE(JsonChecker(line).Valid()) << line;
  EXPECT_EQ(line,
            "{\"event\":\"slow_query\",\"session\":\"s7\",\"sql\":\"SELECT 1\","
            "\"total_ms\":12.500,\"join_ms\":3.250,\"nest_select_ms\":1.125,"
            "\"rows\":42,\"peak_mem_bytes\":65536,\"threads\":8,"
            "\"engine\":\"vectorized\",\"ok\":true}");
  // Without a session the field is omitted entirely (not rendered empty),
  // keeping pre-session consumers byte-compatible.
  rec.session.clear();
  rec.vectorized = false;
  rec.ok = false;
  const std::string anon = telemetry::SlowQueryJsonLine(rec);
  EXPECT_EQ(anon.find("\"session\""), std::string::npos);
  EXPECT_NE(anon.find("\"engine\":\"row\",\"ok\":false"), std::string::npos);
}

TEST(TelemetrySlowQueryTest, FiresOnlyAboveThreshold) {
  TelemetryOffGuard guard;
  std::vector<std::string> lines;
  telemetry::SetSlowQuerySink(
      [&lines](const std::string& line) { lines.push_back(line); });

  Catalog catalog;
  testing_util::RegisterPaperRelations(&catalog);
  const std::string sql = "select a from r where a > 1";

  NraOptions fast;
  fast.slow_query_ms = 1e9;  // nothing is this slow
  ASSERT_OK(NraExecutor(catalog, fast).ExecuteSql(sql).status());
  EXPECT_TRUE(lines.empty());

  NraOptions slow;
  slow.slow_query_ms = 1e-6;  // everything is this slow
  ASSERT_OK(NraExecutor(catalog, slow).ExecuteSql(sql).status());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(JsonChecker(lines[0]).Valid()) << lines[0];
  EXPECT_NE(lines[0].find("\"event\":\"slow_query\""), std::string::npos);
  EXPECT_NE(lines[0].find(sql), std::string::npos);

  // Compound statements log once for the whole statement.
  ASSERT_OK(NraExecutor(catalog, slow)
                .ExecuteStatementSql(sql + " union all " + sql)
                .status());
  EXPECT_EQ(lines.size(), 2u);

  // slow_query_ms = 0 (default) disables the log entirely.
  NraOptions off;
  ASSERT_OK(NraExecutor(catalog, off).ExecuteSql(sql).status());
  EXPECT_EQ(lines.size(), 2u);
}

// ---------- zero overhead & stats hygiene ----------

TEST(TelemetryOverheadTest, DisabledTelemetryTouchesNothing) {
  TelemetryOffGuard guard;
  telemetry::SetMetricsEnabled(false);
  telemetry::UninstallTraceSink();
  MetricsRegistry::Global().ResetValues();
  const std::map<std::string, double> before =
      MetricsRegistry::Global().DeterministicValues();

  Catalog catalog;
  testing_util::RegisterPaperRelations(&catalog);
  NraExecutor exec(catalog, NraOptions::Optimized());
  ASSERT_OK(
      exec.ExecuteSql(
              "select a from r where exists (select e from s where e = a)")
          .status());

  EXPECT_EQ(MetricsRegistry::Global().DeterministicValues(), before);
  EXPECT_FALSE(telemetry::TraceEnabled());

  // With every consumer off, CollectProfiled must not enable per-operator
  // timing: the drained node's clocks stay untouched.
  Table t = testing_util::MakeTable(
      {"x"}, {{Value::Int64(1)}, {Value::Int64(2)}, {Value::Int64(3)}});
  TableSourceNode node{std::move(t)};
  ASSERT_OK(CollectProfiled(&node, QueryPhase::kPostProcessing, "drain",
                            /*profile=*/nullptr)
                .status());
  EXPECT_EQ(node.stats().open_seconds, 0);
  EXPECT_EQ(node.stats().next_seconds, 0);
  EXPECT_EQ(node.stats().rows_out, 3);
}

TEST(OperatorStatsTest, ReopenResetsPerRunCounters) {
  // Regression: a node re-used across Open() calls must not leak the
  // previous run's counters (or timings) into the next run's snapshot.
  Table t = testing_util::MakeTable(
      {"x"}, {{Value::Int64(1)}, {Value::Int64(2)}, {Value::Int64(3)}});
  TableSourceNode node{std::move(t)};
  node.EnableTimingRecursive();

  ASSERT_OK(CollectTable(&node).status());
  EXPECT_EQ(node.stats().rows_out, 3);
  EXPECT_EQ(node.stats().open_calls, 1);
  const int64_t first_next_calls = node.stats().next_calls;

  ASSERT_OK(CollectTable(&node).status());
  EXPECT_EQ(node.stats().rows_out, 3) << "rows_out doubled across re-open";
  EXPECT_EQ(node.stats().next_calls, first_next_calls);
  EXPECT_EQ(node.stats().open_calls, 2) << "open_calls must stay cumulative";
}

TEST(OperatorStatsTest, ExplainAnalyzeMarksAdapterBatches) {
  Catalog catalog;
  testing_util::RegisterPaperRelations(&catalog);
  NraOptions options;
  options.num_threads = 1;
  options.vectorized = true;
  // DISTINCT has no native batch implementation, so its batches come from
  // the row adapter and the renderer must say so.
  const Result<std::string> text =
      ExplainAnalyzeSql("select distinct b from r", catalog, options);
  ASSERT_OK(text.status());
  EXPECT_NE(text->find("batches="), std::string::npos) << *text;
  EXPECT_NE(text->find("(adapter="), std::string::npos) << *text;
}

}  // namespace
}  // namespace nestra
