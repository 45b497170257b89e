// Thread-count invariance of the stage-DAG executor: for every query,
// option set and engine (row / vectorized), running at 2 and 8 threads
// must produce results ROW-EXACTLY equal to the one-thread run — same row
// order, same value representations — with an identical EXPLAIN ANALYZE
// stage list and the same deterministic NraStats. At one thread the DAG
// runs its tasks inline in creation order; with more it only changes
// *when* whole stages run (independent pipelines overlap on the shared
// pool), never what they produce (DESIGN.md §11): every task is internally
// deterministic and task-local profiles merge in creation order. Every
// answer must also bag-equal the nested-iteration oracle, which shares no
// code with the executor's plan decisions.
//
// Also covered here: the StageDag scheduler itself (error-first semantics,
// failure-skip cascades, stats merging) and the PipelineRole operator
// classification that documents where pipeline boundaries fall.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baseline/nested_iteration.h"
#include "common/date.h"
#include "exec/aggregate.h"
#include "exec/distinct.h"
#include "exec/hash_join.h"
#include "exec/limit.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "nested/fused_nest_select.h"
#include "nra/executor.h"
#include "nra/pipeline.h"
#include "nra/profile.h"
#include "query_generator.h"
#include "tpch/queries.h"
#include "tpch/tpch_gen.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::QueryGenerator;

constexpr int kThreadDegrees[] = {1, 2, 8};

void ExpectRowExact(const Table& reference, const Table& actual,
                    const std::string& context) {
  ASSERT_EQ(reference.num_rows(), actual.num_rows()) << context;
  for (int64_t i = 0; i < reference.num_rows(); ++i) {
    ASSERT_TRUE(reference.rows()[static_cast<size_t>(i)] ==
                actual.rows()[static_cast<size_t>(i)])
        << context << "\nfirst divergence at row " << i
        << "\none thread:\n" << reference.ToString() << "actual:\n"
        << actual.ToString();
  }
}

void ExpectSameStages(const QueryProfile& reference,
                      const QueryProfile& actual,
                      const std::string& context) {
  ASSERT_EQ(reference.stages().size(), actual.stages().size()) << context;
  for (size_t i = 0; i < reference.stages().size(); ++i) {
    const ProfiledStage& r = reference.stages()[i];
    const ProfiledStage& a = actual.stages()[i];
    EXPECT_EQ(r.label, a.label) << context << " (stage " << i << ")";
    EXPECT_EQ(r.phase, a.phase) << context << " (stage " << i << ")";
    EXPECT_EQ(r.rows_out, a.rows_out) << context << " (stage " << i << ")";
  }
}

std::vector<std::pair<std::string, NraOptions>> OptionVariants() {
  std::vector<std::pair<std::string, NraOptions>> configs;
  configs.emplace_back("optimized", NraOptions::Optimized());
  configs.emplace_back("original", NraOptions::Original());
  {
    NraOptions o = NraOptions::Optimized();
    o.push_down_nest = true;
    o.rewrite_positive = true;
    o.bottom_up_linear = true;
    configs.emplace_back("all-rewrites", o);
  }
  {
    NraOptions o = NraOptions::Optimized();
    o.magic_restriction = true;
    configs.emplace_back("magic", o);
  }
  return configs;
}

void CheckThreadCountsAgree(const Catalog& catalog, const std::string& sql) {
  NestedIterationExecutor oracle(catalog, {.use_indexes = false});
  Result<Table> expected = oracle.ExecuteSql(sql);
  ASSERT_TRUE(expected.ok()) << sql << ": " << expected.status().ToString();
  for (const auto& [name, base] : OptionVariants()) {
    for (const bool vectorized : {false, true}) {
      Result<Table> reference = Status::Internal("unset");
      QueryProfile reference_profile;
      NraStats reference_stats;
      for (const int threads : kThreadDegrees) {
        const std::string context =
            name + (vectorized ? "/vec" : "/row") +
            "/threads=" + std::to_string(threads) + "\n" + sql;
        NraOptions opts = base;
        opts.num_threads = threads;
        opts.vectorized = vectorized;
        opts.profile = true;
        NraExecutor exec(catalog, opts);
        QueryProfile profile;
        NraStats stats;
        Result<Table> actual = exec.ExecuteSql(sql, &stats, &profile);
        ASSERT_TRUE(actual.ok())
            << context << ": " << actual.status().ToString();
        EXPECT_TRUE(Table::BagEquals(*expected, *actual))
            << context << "\noracle:\n"
            << expected->ToString() << "actual:\n"
            << actual->ToString();
        if (threads == 1) {
          reference = std::move(actual);
          reference_profile = std::move(profile);
          reference_stats = stats;
          continue;
        }
        ExpectRowExact(*reference, *actual, context);
        ExpectSameStages(reference_profile, profile, context);
        // The deterministic NraStats fields must agree too (timings are
        // wall-clock and may not).
        EXPECT_EQ(reference_stats.intermediate_rows, stats.intermediate_rows)
            << context;
        EXPECT_EQ(reference_stats.output_rows, stats.output_rows) << context;
      }
    }
  }
}

// ---------- The paper's experiment queries on TPC-H data ----------

class PipelinedTpchTest : public ::testing::Test {
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

TEST_F(PipelinedTpchTest, Query1) {
  CheckThreadCountsAgree(catalog_, Query1Sql());
}

TEST_F(PipelinedTpchTest, Query2aMixed) {
  CheckThreadCountsAgree(
      catalog_,
      MakeQuery2(10, 40, 5000, 25, OuterLink::kAny, InnerLink::kNotExists));
}

TEST_F(PipelinedTpchTest, Query3aMixed) {
  CheckThreadCountsAgree(
      catalog_, MakeQuery3(10, 40, 5000, 25, OuterLink::kAll,
                           InnerLink::kExists, Query3Variant::kVariantA));
}

TEST_F(PipelinedTpchTest, Query3bNegative) {
  CheckThreadCountsAgree(
      catalog_, MakeQuery3(10, 40, 5000, 25, OuterLink::kAll,
                           InnerLink::kNotExists, Query3Variant::kVariantB));
}

// ---------- Fuzzed query corpus ----------

class PipelinedFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PipelinedFuzzTest, ThreadCountsMatchOneThreadAndOracle) {
  QueryGenerator gen(GetParam());
  Catalog catalog;
  gen.PopulateTables(&catalog);

  for (int i = 0; i < 8; ++i) {
    const std::string sql = gen.RandomQuery();
    SCOPED_TRACE(sql);
    CheckThreadCountsAgree(catalog, sql);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelinedFuzzTest,
                         ::testing::Range<uint64_t>(0, 8));

// ---------- StageDag scheduler unit tests ----------

TEST(StageDagTest, RunsTasksRespectingDependencies) {
  for (const int threads : kThreadDegrees) {
    StageDag dag;
    std::atomic<int> order{0};
    std::vector<int> seen(3, -1);
    const int a = dag.AddTask("a", {}, [&](NraStats*, QueryProfile*) {
      seen[0] = order.fetch_add(1);
      return Status::OK();
    });
    const int b = dag.AddTask("b", {a}, [&](NraStats*, QueryProfile*) {
      seen[1] = order.fetch_add(1);
      return Status::OK();
    });
    dag.AddTask("c", {a, b}, [&](NraStats*, QueryProfile*) {
      seen[2] = order.fetch_add(1);
      return Status::OK();
    });
    ASSERT_OK(dag.Run(threads, nullptr, nullptr));
    EXPECT_LT(seen[0], seen[1]) << "threads=" << threads;
    EXPECT_LT(seen[1], seen[2]) << "threads=" << threads;
  }
}

TEST(StageDagTest, IndependentTasksAllRunAndStatsMerge) {
  for (const int threads : kThreadDegrees) {
    StageDag dag;
    std::atomic<int> ran{0};
    for (int i = 0; i < 16; ++i) {
      dag.AddTask("t" + std::to_string(i), {},
                  [&, i](NraStats* s, QueryProfile*) {
                    ran.fetch_add(1);
                    s->join_seconds += 1.0;
                    s->intermediate_rows = i;
                    return Status::OK();
                  });
    }
    NraStats stats;
    ASSERT_OK(dag.Run(threads, &stats, nullptr));
    EXPECT_EQ(ran.load(), 16) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(stats.join_seconds, 16.0) << "threads=" << threads;
    EXPECT_EQ(stats.intermediate_rows, 15) << "threads=" << threads;
  }
}

TEST(StageDagTest, FailureSkipsDependentsAndSurfacesFirstError) {
  for (const int threads : kThreadDegrees) {
    StageDag dag;
    std::atomic<bool> dependent_ran{false};
    const int bad = dag.AddTask("bad", {}, [](NraStats*, QueryProfile*) {
      return Status::Internal("boom");
    });
    const int child =
        dag.AddTask("child", {bad}, [&](NraStats*, QueryProfile*) {
          dependent_ran.store(true);
          return Status::OK();
        });
    dag.AddTask("grandchild", {child}, [&](NraStats*, QueryProfile*) {
      dependent_ran.store(true);
      return Status::OK();
    });
    const Status s = dag.Run(threads, nullptr, nullptr);
    EXPECT_FALSE(s.ok()) << "threads=" << threads;
    EXPECT_NE(s.ToString().find("boom"), std::string::npos)
        << "threads=" << threads;
    EXPECT_FALSE(dependent_ran.load()) << "threads=" << threads;
  }
}

TEST(StageDagTest, ProfilesMergeInCreationOrder) {
  // Two independent tasks can complete in either real-time order under a
  // parallel schedule, but the merged profile must always list stages in
  // task-creation order — that is the whole thread-count identity contract.
  for (const int threads : kThreadDegrees) {
    StageDag dag;
    dag.AddTask("first", {}, [](NraStats*, QueryProfile* p) {
      StageTimer timer(p, QueryPhase::kUnnestJoin, "stage-first");
      timer.Finish(1);
      return Status::OK();
    });
    dag.AddTask("second", {}, [](NraStats*, QueryProfile* p) {
      StageTimer timer(p, QueryPhase::kNest, "stage-second");
      timer.Finish(2);
      return Status::OK();
    });
    QueryProfile profile;
    ASSERT_OK(dag.Run(threads, nullptr, &profile));
    ASSERT_EQ(profile.stages().size(), 2u) << "threads=" << threads;
    EXPECT_EQ(profile.stages()[0].label, "stage-first");
    EXPECT_EQ(profile.stages()[1].label, "stage-second");
    EXPECT_EQ(profile.stages()[0].rows_out, 1);
    EXPECT_EQ(profile.stages()[1].rows_out, 2);
  }
}

// ---------- PipelineRole classification ----------

TEST(PipelineRoleTest, OperatorsReportTheirDocumentedRoles) {
  const Schema schema{{{"a", TypeId::kInt64, false}}};
  Table table{schema};
  auto source = [&] { return std::make_unique<TableSourceNode>(table); };

  EXPECT_EQ(source()->role(), PipelineRole::kSource);
  EXPECT_EQ(ScanNode(&table, "t").role(), PipelineRole::kSource);
  EXPECT_EQ(SortNode(source(), {{"a", true}}, 1, false).role(),
            PipelineRole::kBreaker);
  EXPECT_EQ(AggregateNode(source(), {"a"}, {}).role(),
            PipelineRole::kBreaker);
  EXPECT_EQ(DistinctNode(source()).role(), PipelineRole::kSerialStreaming);
  EXPECT_EQ(LimitNode(source(), 1).role(), PipelineRole::kSerialStreaming);
  EXPECT_EQ(HashJoinNode(source(), source(), JoinType::kInner, {}, nullptr)
                .role(),
            PipelineRole::kBreaker);
  EXPECT_EQ(FusedNestSelectNode(source(), {}).role(),
            PipelineRole::kSerialStreaming);

  EXPECT_STREQ(PipelineRoleLabel(PipelineRole::kSource), "source");
  EXPECT_STREQ(PipelineRoleLabel(PipelineRole::kStreaming), "streaming");
  EXPECT_STREQ(PipelineRoleLabel(PipelineRole::kSerialStreaming),
               "serial-streaming");
  EXPECT_STREQ(PipelineRoleLabel(PipelineRole::kBreaker), "breaker");
}

}  // namespace
}  // namespace nestra
