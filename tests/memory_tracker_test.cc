// Properties of the memory-accounting subsystem (DESIGN.md §14):
//
//  * unit semantics of the tracker primitives — charge/release/fold, the
//    soft limit, the session/process roll-up, the TLS installers;
//  * accounted logical bytes are a proven lower bound for what the
//    materialized containers actually hold live at spot-check points;
//  * the reported query peak is run-to-run deterministic at fixed
//    (engine, threads, options), for {row, vectorized} x threads {1,2,8}
//    and both the staged and pipelined schedulers;
//  * EXPLAIN ANALYZE shows per-stage mem=/peak= for hash join, sort, and
//    nest stages, and those numbers match the profile JSON;
//  * with the limit off, accounting changes no observable behavior; with a
//    tiny limit the query fails loudly with ResourceExhausted and no
//    partial results — including under 8 concurrent limited sessions.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/date.h"
#include "common/memory_tracker.h"
#include "common/row_batch.h"
#include "common/table.h"
#include "exec/exec_node.h"
#include "nra/executor.h"
#include "nra/profile.h"
#include "server/connection_manager.h"
#include "server/session.h"
#include "storage/catalog.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::I;
using testing_util::S;

// ---------- Tracker primitives ----------

TEST(MemoryAcctTest, TracksCurrentAndPeak) {
  MemoryAcct acct;
  acct.Add(100);
  acct.Add(50);
  EXPECT_EQ(acct.cur(), 150);
  EXPECT_EQ(acct.peak(), 150);
  acct.Release(120);
  EXPECT_EQ(acct.cur(), 30);
  EXPECT_EQ(acct.peak(), 150);
  acct.Add(10);
  EXPECT_EQ(acct.peak(), 150);  // peak only moves on new highs
  acct.Reset();
  EXPECT_EQ(acct.cur(), 0);
  EXPECT_EQ(acct.peak(), 0);
}

TEST(QueryMemoryTrackerTest, ChargeReleaseAndFold) {
  QueryMemoryTracker tracker(/*limit=*/0);
  EXPECT_OK(tracker.Charge(1000));
  EXPECT_EQ(tracker.current(), 1000);
  EXPECT_EQ(tracker.peak(), 0);  // peak is stage-folded, not charge-driven
  EXPECT_OK(tracker.FoldStage(700));
  EXPECT_OK(tracker.FoldStage(400));  // smaller fold cannot lower the peak
  EXPECT_EQ(tracker.peak(), 700);
  tracker.Release(1000);
  EXPECT_EQ(tracker.current(), 0);
}

TEST(QueryMemoryTrackerTest, SoftLimitFailsLoudly) {
  QueryMemoryTracker tracker(/*limit=*/500);
  EXPECT_OK(tracker.Charge(400));
  const Status over = tracker.Charge(200);
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(over.message().find("max_query_mem"), std::string::npos)
      << over.ToString();
  // A failed charge has still landed; the caller (or the destructor)
  // releases it, so session/process gauges never drift.
  EXPECT_EQ(tracker.current(), 600);
  const Status fold = tracker.FoldStage(501);
  EXPECT_EQ(fold.code(), StatusCode::kResourceExhausted);
  EXPECT_OK(tracker.FoldStage(500));  // exactly at the limit is allowed
}

TEST(QueryMemoryTrackerTest, FoldsIntoSessionOnDestruction) {
  SessionMemoryTracker session("test-session");
  {
    ScopedSessionMemory scoped_session(&session);
    QueryMemoryTracker q1(0);
    EXPECT_OK(q1.Charge(300));
    EXPECT_OK(q1.FoldStage(300));
    EXPECT_EQ(session.current(), 300);
    // q1 destructs with live bytes (as a failed query would): the residual
    // is released and the peak folds into the session.
  }
  EXPECT_EQ(session.current(), 0);
  EXPECT_EQ(session.peak(), 300);
  EXPECT_EQ(session.cumulative(), 300);
  EXPECT_EQ(session.queries(), 1);
  {
    ScopedSessionMemory scoped_session(&session);
    QueryMemoryTracker q2(0);
    EXPECT_OK(q2.FoldStage(120));
  }
  EXPECT_EQ(session.peak(), 300);         // max across queries
  EXPECT_EQ(session.cumulative(), 420);   // sum across queries
  EXPECT_EQ(session.queries(), 2);
}

TEST(MemoryTrackerTest, ScopedInstallersNestAndRestore) {
  EXPECT_EQ(CurrentQueryMemory(), nullptr);
  QueryMemoryTracker outer(0);
  QueryMemoryTracker inner(0);
  {
    ScopedQueryMemory a(&outer);
    EXPECT_EQ(CurrentQueryMemory(), &outer);
    {
      ScopedQueryMemory b(&inner);
      EXPECT_EQ(CurrentQueryMemory(), &inner);
    }
    EXPECT_EQ(CurrentQueryMemory(), &outer);
  }
  EXPECT_EQ(CurrentQueryMemory(), nullptr);
}

TEST(MemoryTrackerTest, DumpHierarchyListsLiveSessions) {
  SessionMemoryTracker session("dump-probe");
  {
    ScopedSessionMemory scoped(&session);
    QueryMemoryTracker q(0);
    EXPECT_OK(q.FoldStage(64));
  }
  const std::string dump = DumpMemoryHierarchy();
  EXPECT_NE(dump.find("process: current="), std::string::npos) << dump;
  EXPECT_NE(dump.find("session dump-probe:"), std::string::npos) << dump;
  EXPECT_NE(dump.find("cumulative=64B"), std::string::npos) << dump;
}

// ---------- Accounted bytes vs. live container contents ----------

TEST(MemoryTrackerTest, LogicalBytesBoundLiveContainers) {
  // Logical sizes must cover at least the row headers and every owned
  // string payload — the dominant live allocations of a materialized
  // table. (They deliberately exclude allocator slack, which is what makes
  // them deterministic.)
  Schema schema({Field("id", TypeId::kInt64, /*nullable=*/false),
                 Field("name", TypeId::kString, /*nullable=*/false)});
  std::vector<Row> rows;
  int64_t string_payload = 0;
  for (int i = 0; i < 100; ++i) {
    const std::string name(static_cast<size_t>(i % 17) + 1, 'x');
    string_payload += static_cast<int64_t>(name.size());
    rows.push_back(Row({I(i), S(name)}));
  }
  Table table(schema, std::move(rows));
  const int64_t lower_bound =
      table.num_rows() * static_cast<int64_t>(sizeof(Row)) + string_payload;
  EXPECT_GE(TableBytes(table), lower_bound);
  // And per row: RowBytes covers the header plus each value header.
  const Row& r = table.rows().front();
  EXPECT_GE(RowBytes(r),
            static_cast<int64_t>(sizeof(Row)) +
                static_cast<int64_t>(r.values().size() * sizeof(Value)));
  EXPECT_EQ(ValueBytes(S("abcd")),
            static_cast<int64_t>(sizeof(Value)) + 4);
}

// ---------- Columnar byte parity ----------

// Per-column logical bytes (BatchRowBytes, TableBytes of a columnar table,
// CollectTable's drain bytes) must equal the RowBytes sum over the rows the
// batches materialize to, so switching a stage result between rows and
// batches never moves a reported peak.
TEST(MemoryTrackerTest, ColumnarBytesEqualRowBytes) {
  // k_gen is declared int64 but holds doubles and strings too, so its
  // batches go generic.
  const Schema schema({Field("k_int", TypeId::kInt64),
                       Field("k_date", TypeId::kDate),
                       Field("k_dbl", TypeId::kFloat64),
                       Field("k_str", TypeId::kString),
                       Field("k_gen", TypeId::kInt64)});
  const auto make_rows = [](int64_t n) {
    std::vector<Row> rows;
    for (int64_t i = 0; i < n; ++i) {
      const bool null = i % 7 == 3;
      const std::string str(static_cast<size_t>(i % 5), 'x');  // "" too
      Value gen = i % 3 == 0   ? Value::Int64(i)
                  : i % 3 == 1 ? Value::Float64(0.5 * static_cast<double>(i))
                               : Value::String(str + "g");
      rows.push_back(Row({null ? Value::Null() : I(i),
                          i % 11 == 0 ? Value::Null() : Value::Date(i % 400),
                          null ? Value::Null() : Value::Float64(i * 0.25),
                          i % 13 == 5 ? Value::Null() : S(str),
                          i % 9 == 4 ? Value::Null() : std::move(gen)}));
    }
    return rows;
  };
  for (const int64_t n : {int64_t{0}, int64_t{1}, int64_t{1023},
                          int64_t{1024}, int64_t{2500}}) {
    const std::vector<Row> rows = make_rows(n);
    int64_t expected = 0;
    for (const Row& r : rows) expected += RowBytes(r);
    EXPECT_EQ(TableBytes(Table(schema, rows)), expected) << "rows " << n;
    for (const int64_t batch_rows :
         {int64_t{1}, int64_t{1023}, int64_t{1024}}) {
      const std::string context =
          "rows " + std::to_string(n) + " batch " + std::to_string(batch_rows);
      Table table(schema);
      RowBatch batch;
      batch.Reset(table.schema());
      int64_t batch_sum = 0;
      const auto flush = [&]() {
        batch_sum += BatchRowBytes(batch);
        table.AppendBatch(std::move(batch));
        batch = RowBatch();
        batch.Reset(table.schema());
      };
      for (const Row& r : rows) {
        batch.AppendRow(r);
        if (batch.num_rows() == batch_rows) flush();
      }
      flush();
      EXPECT_EQ(table.columnar(), n > 0) << context;
      EXPECT_EQ(table.num_rows(), n) << context;
      EXPECT_EQ(batch_sum, expected) << context;
      EXPECT_EQ(TableBytes(table), expected) << context;

      // CollectTable's drain bytes over a batch hand-over, and the bytes
      // of the columnar table it keeps.
      int64_t collected_bytes = 0;
      TableSourceNode source(table);
      Result<Table> collected =
          CollectTable(&source, /*vectorized=*/true, &collected_bytes);
      ASSERT_TRUE(collected.ok()) << collected.status().ToString();
      EXPECT_EQ(collected_bytes, expected) << context;
      EXPECT_EQ(TableBytes(*collected), expected) << context;

      // Materializing keeps bytes and rows exactly.
      ASSERT_EQ(table.rows().size(), rows.size()) << context;
      EXPECT_FALSE(table.columnar()) << context;
      EXPECT_EQ(TableBytes(table), expected) << context;
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_TRUE(table.rows()[i] == rows[i]) << context << " row " << i;
      }
    }
  }
}

// ---------- End-to-end properties on TPC-H ----------

class MemoryTpchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchConfig config;
    config.scale = 0.04;
    config.declare_not_null = true;
    ASSERT_OK(PopulateTpch(&catalog_, config));
  }

  std::string Query1Sql() {
    const Table* orders = *catalog_.GetTable("orders");
    const Value lo = *ColumnQuantile(*orders, "o_orderdate", 0.2);
    const Value hi = *ColumnQuantile(*orders, "o_orderdate", 0.8);
    return MakeQuery1(FormatDate(lo.int64()), FormatDate(hi.int64()));
  }

  Catalog catalog_;
};

TEST_F(MemoryTpchTest, PeakIsRunToRunDeterministic) {
  const std::string sql = Query1Sql();
  for (const bool vectorized : {false, true}) {
    for (const int threads : {1, 2, 8}) {
      for (const bool pipelined : {false, true}) {
        NraOptions opts;
        opts.vectorized = vectorized;
        opts.num_threads = threads;
        opts.pipelined = pipelined;
        int64_t ref_peak = -1;
        for (int run = 0; run < 3; ++run) {
          NraExecutor exec(catalog_, opts);
          NraStats stats;
          ASSERT_OK_AND_ASSIGN(Table result, exec.ExecuteSql(sql, &stats));
          ASSERT_GT(result.num_rows(), 0);
          EXPECT_GT(stats.peak_mem_bytes, 0)
              << "vec=" << vectorized << " threads=" << threads
              << " pipelined=" << pipelined;
          if (run == 0) {
            ref_peak = stats.peak_mem_bytes;
          } else {
            EXPECT_EQ(stats.peak_mem_bytes, ref_peak)
                << "vec=" << vectorized << " threads=" << threads
                << " pipelined=" << pipelined << " run=" << run;
          }
        }
      }
    }
  }
}

TEST_F(MemoryTpchTest, RowAndVectorizedEnginesAccountComparably) {
  // Engines exchange the same logical rows, so the per-stage *result* bytes
  // (mem_bytes: content of the materialized stage output) are identical
  // across engines. Stage *peaks* legitimately differ: operators stage
  // their intermediates differently (the row hash join buffers pending
  // matches row-wise, the vectorized one in batches), so the query peak is
  // engine-specific — deterministic per engine (proven by
  // PeakIsRunToRunDeterministic) and close across engines.
  const std::string sql = Query1Sql();
  int64_t peaks[2] = {0, 0};
  std::map<std::string, int64_t> stage_mem[2];
  for (const bool vectorized : {false, true}) {
    NraOptions opts;
    opts.vectorized = vectorized;
    opts.num_threads = 1;
    opts.pipelined = false;
    opts.profile = true;
    NraExecutor exec(catalog_, opts);
    QueryProfile profile;
    NraStats stats;
    ASSERT_OK_AND_ASSIGN(Table result,
                         exec.ExecuteSql(sql, &stats, &profile));
    (void)result;
    const int i = vectorized ? 1 : 0;
    peaks[i] = stats.peak_mem_bytes;
    for (const ProfiledStage& stage : profile.stages()) {
      stage_mem[i][stage.label] = stage.mem_bytes;
    }
  }
  // Same stages, same materialized result bytes per stage — including the
  // base scans, which take engine-specific fast paths.
  EXPECT_EQ(stage_mem[0], stage_mem[1]);
  for (const auto& [label, bytes] : stage_mem[0]) {
    EXPECT_GT(bytes, 0) << "stage " << label << " reports no result bytes";
  }
  // Peaks are engine-specific but must stay in the same ballpark (within
  // 10% of each other): a larger gap would mean one engine stopped
  // accounting some materialization entirely.
  EXPECT_GT(peaks[0], 0);
  EXPECT_GT(peaks[1], 0);
  const double ratio = static_cast<double>(std::max(peaks[0], peaks[1])) /
                       static_cast<double>(std::min(peaks[0], peaks[1]));
  EXPECT_LT(ratio, 1.10) << "row peak=" << peaks[0]
                         << " vectorized peak=" << peaks[1];
}

TEST_F(MemoryTpchTest, ExplainAnalyzeShowsPerStageMemMatchingJson) {
  NraOptions opts;
  opts.profile = true;
  opts.num_threads = 1;
  NraExecutor exec(catalog_, opts);
  QueryProfile profile;
  NraStats stats;
  ASSERT_OK_AND_ASSIGN(Table result,
                       exec.ExecuteSql(Query1Sql(), &stats, &profile));
  (void)result;

  const std::string text = profile.ToString();
  const std::string json = profile.ToJson();
  // The query total appears in both renderings and equals NraStats.
  EXPECT_GT(profile.peak_mem_bytes, 0);
  EXPECT_EQ(profile.peak_mem_bytes, stats.peak_mem_bytes);
  EXPECT_NE(text.find("peak_mem=" + std::to_string(profile.peak_mem_bytes) +
                      "B"),
            std::string::npos)
      << text;
  EXPECT_NE(json.find("\"peak_mem_bytes\":" +
                      std::to_string(profile.peak_mem_bytes)),
            std::string::npos)
      << json;

  // Every stage that materializes reports bytes, and text and JSON agree
  // number for number. Query 1 runs hash joins, the fused path's sort, and
  // nest work — all covered by the stage list.
  int stages_with_mem = 0;
  for (const ProfiledStage& stage : profile.stages()) {
    if (stage.peak_mem_bytes == 0) continue;
    ++stages_with_mem;
    EXPECT_NE(text.find(" mem=" + std::to_string(stage.mem_bytes) +
                        " peak=" + std::to_string(stage.peak_mem_bytes)),
              std::string::npos)
        << stage.label << "\n"
        << text;
    EXPECT_NE(json.find("\"mem_bytes\":" + std::to_string(stage.mem_bytes) +
                        ",\"peak_bytes\":" +
                        std::to_string(stage.peak_mem_bytes)),
              std::string::npos)
        << stage.label << "\n"
        << json;
    // A stage's footprint can never exceed the query peak.
    EXPECT_LE(stage.peak_mem_bytes, profile.peak_mem_bytes) << stage.label;
  }
  EXPECT_GT(stages_with_mem, 0) << text;

  // Per-operator annotations: the join/sort trees expose their own peaks,
  // and the rendered tree carries mem=/peak= for them.
  bool saw_operator_peak = false;
  for (const ProfiledStage& stage : profile.stages()) {
    if (stage.has_tree && stage.tree.stats.peak_mem_bytes > 0) {
      saw_operator_peak = true;
    }
    for (const ProfiledOperator& child : stage.tree.children) {
      if (child.stats.peak_mem_bytes > 0) saw_operator_peak = true;
    }
  }
  EXPECT_TRUE(saw_operator_peak);
}

TEST_F(MemoryTpchTest, LimitOffChangesNothing) {
  const std::string sql = Query1Sql();
  Table no_limit_result;
  NraStats no_limit_stats;
  {
    NraOptions opts;  // max_query_mem defaults to 0 (off)
    NraExecutor exec(catalog_, opts);
    ASSERT_OK_AND_ASSIGN(no_limit_result,
                         exec.ExecuteSql(sql, &no_limit_stats));
  }
  {
    NraOptions opts;
    opts.max_query_mem = int64_t{1} << 40;  // on, but unreachable
    NraExecutor exec(catalog_, opts);
    NraStats stats;
    ASSERT_OK_AND_ASSIGN(Table result, exec.ExecuteSql(sql, &stats));
    EXPECT_TRUE(Table::BagEquals(no_limit_result, result));
    EXPECT_EQ(stats.peak_mem_bytes, no_limit_stats.peak_mem_bytes);
  }
}

TEST_F(MemoryTpchTest, TinyLimitFailsWithResourceExhausted) {
  for (const bool pipelined : {false, true}) {
    NraOptions opts;
    opts.pipelined = pipelined;
    opts.max_query_mem = 64;  // no real query fits in 64 accounted bytes
    NraExecutor exec(catalog_, opts);
    NraStats stats;
    const Result<Table> result = exec.ExecuteSql(Query1Sql(), &stats);
    ASSERT_FALSE(result.ok()) << "pipelined=" << pipelined;
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << result.status().ToString();
    EXPECT_NE(result.status().message().find("max_query_mem"),
              std::string::npos)
        << result.status().ToString();
  }
}

// ---------- Concurrent limited sessions through the server layer ----------

TEST_F(MemoryTpchTest, ConcurrentSessionsEnforceLimitsIndependently) {
  ServerOptions server_options;
  server_options.max_in_flight = 4;  // force some queries to queue
  ConnectionManager manager(&catalog_, server_options);
  const std::string sql = Query1Sql();

  constexpr int kSessions = 8;
  std::vector<std::unique_ptr<Session>> sessions;
  for (int i = 0; i < kSessions; ++i) {
    sessions.push_back(manager.Connect());
    // Even sessions run unlimited, odd sessions get an impossible limit.
    if (i % 2 == 1) sessions.back()->options().max_query_mem = 64;
  }

  std::atomic<int> ok_count{0};
  std::atomic<int> exhausted_count{0};
  std::atomic<int> other_count{0};
  std::vector<std::thread> threads;
  threads.reserve(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      const Result<Table> result = sessions[static_cast<size_t>(i)]->Query(sql);
      if (result.ok()) {
        ok_count.fetch_add(1);
      } else if (result.status().code() == StatusCode::kResourceExhausted) {
        exhausted_count.fetch_add(1);
      } else {
        other_count.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(ok_count.load(), kSessions / 2);
  EXPECT_EQ(exhausted_count.load(), kSessions / 2);
  EXPECT_EQ(other_count.load(), 0);

  // No torn state: every admission ticket was released (failed queries
  // included), the in-flight gauge is back to zero, and the gate's
  // high-water mark respected the configured bound.
  const AdmissionController& admission = manager.admission();
  EXPECT_EQ(admission.in_flight(), 0);
  EXPECT_EQ(admission.admitted_total(), kSessions);
  EXPECT_LE(admission.peak_in_flight(), server_options.max_in_flight);

  // Session roll-ups: the unlimited sessions folded real peaks; every
  // session's live bytes drained back to zero.
  for (int i = 0; i < kSessions; ++i) {
    const SessionMemoryTracker& mem = sessions[static_cast<size_t>(i)]->memory();
    EXPECT_EQ(mem.current(), 0) << "session " << i;
    EXPECT_GE(mem.queries(), 1) << "session " << i;
    if (i % 2 == 0) {
      EXPECT_GT(mem.cumulative(), 0) << "session " << i;
    }
  }

  // And the unlimited sessions all saw the same deterministic peak.
  int64_t ref_peak = -1;
  for (int i = 0; i < kSessions; i += 2) {
    const int64_t peak = sessions[static_cast<size_t>(i)]->memory().peak();
    if (ref_peak < 0) {
      ref_peak = peak;
    } else {
      EXPECT_EQ(peak, ref_peak) << "session " << i;
    }
  }
}

}  // namespace
}  // namespace nestra
