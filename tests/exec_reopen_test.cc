// Reopen discipline for every operator kind: Open() starts a fresh run.
// A second Open()+drain must (a) produce exactly the rows of the first run
// and (b) report a fresh per-run OperatorStats block — only open_calls is
// cumulative. This pins the row→batch adapter fix: the adapter's saw-EOF
// latch and the per-run counters are reset by ExecNode::Open, so a reopened
// adapter-fallback operator (aggregate, distinct, the joins) drained via
// NextBatch does not replay as instantly-empty and does not double-count
// rows_out. The one deliberate exception — TableSourceNode after NextBatch
// handed a columnar table's batches over — must fail LOUDLY on reopen
// instead of silently replaying an emptied table.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/aggregate.h"
#include "exec/distinct.h"
#include "exec/exec_node.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/index_join.h"
#include "exec/limit.h"
#include "exec/nested_loop_join.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/sort.h"
#include "expr/expr.h"
#include "storage/hash_index.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::I;
using testing_util::MakeTable;
using testing_util::N;

Table LeftTable() {
  return MakeTable({"a", "b"},
                   {{I(1), I(10)},
                    {I(2), I(20)},
                    {I(2), I(21)},
                    {I(3), N()},
                    {N(), I(40)}});
}

Table RightTable() {
  return MakeTable({"x", "y"},
                   {{I(1), I(100)}, {I(2), I(200)}, {I(4), I(400)}});
}

struct RunSnapshot {
  std::vector<Row> rows;
  OperatorStats stats;
};

// One full Open → drain → Close cycle through the chosen protocol. The
// stats snapshot is taken BEFORE Close so timing fields don't blur it.
Status DrainOnce(ExecNode* node, bool use_batches, RunSnapshot* out) {
  out->rows.clear();
  NESTRA_RETURN_NOT_OK(node->Open());
  if (use_batches) {
    RowBatch batch;
    bool eof = false;
    while (true) {
      NESTRA_RETURN_NOT_OK(node->NextBatch(&batch, &eof));
      if (eof) break;
      for (int64_t i = 0; i < batch.num_rows(); ++i) {
        out->rows.push_back(batch.TakeRow(i));
      }
    }
  } else {
    Row row;
    bool eof = false;
    while (true) {
      NESTRA_RETURN_NOT_OK(node->Next(&row, &eof));
      if (eof) break;
      out->rows.push_back(std::move(row));
      row = Row();
    }
  }
  out->stats = node->stats();
  node->Close();
  return Status::OK();
}

void ExpectSameRows(const RunSnapshot& first, const RunSnapshot& second,
                    const std::string& context) {
  ASSERT_EQ(first.rows.size(), second.rows.size()) << context;
  for (size_t i = 0; i < first.rows.size(); ++i) {
    EXPECT_TRUE(first.rows[i] == second.rows[i])
        << context << ": divergence at row " << i;
  }
}

// Builds the node twice-drains it under both protocols, asserting the
// second run is indistinguishable from the first (rows AND per-run stats).
void CheckReopen(const std::string& kind,
                 const std::function<ExecNodePtr()>& build) {
  for (const bool use_batches : {false, true}) {
    const std::string context =
        kind + (use_batches ? " (batch protocol)" : " (row protocol)");
    ExecNodePtr node = build();
    RunSnapshot first;
    RunSnapshot second;
    SCOPED_TRACE(context);
    ASSERT_OK(DrainOnce(node.get(), use_batches, &first));
    ASSERT_OK(DrainOnce(node.get(), use_batches, &second));

    ASSERT_FALSE(first.rows.empty()) << context << ": vacuous test";
    ExpectSameRows(first, second, context);

    EXPECT_EQ(first.stats.open_calls, 1) << context;
    EXPECT_EQ(second.stats.open_calls, 2) << context;
    // Everything else is per-run: identical counts, no accumulation.
    EXPECT_EQ(first.stats.rows_out, second.stats.rows_out) << context;
    EXPECT_EQ(first.stats.next_calls, second.stats.next_calls) << context;
    EXPECT_EQ(first.stats.batches_out, second.stats.batches_out) << context;
    EXPECT_EQ(first.stats.adapter_batches, second.stats.adapter_batches)
        << context;
    EXPECT_EQ(first.stats.build_rows, second.stats.build_rows) << context;
    EXPECT_EQ(first.stats.probe_rows, second.stats.probe_rows) << context;
    EXPECT_EQ(first.stats.sort_rows, second.stats.sort_rows) << context;
    EXPECT_EQ(first.stats.rows_out,
              static_cast<int64_t>(first.rows.size()))
        << context;
  }
}

ExecNodePtr Src() {
  return std::make_unique<TableSourceNode>(LeftTable());
}

ExecNodePtr RightSrc() {
  return std::make_unique<TableSourceNode>(RightTable());
}

TEST(ExecReopenTest, TableSource) {
  CheckReopen("TableSource", [] { return Src(); });
}

class ExecReopenScanTest : public ::testing::Test {
 protected:
  Table table_ = LeftTable();
};

TEST_F(ExecReopenScanTest, Scan) {
  CheckReopen("Scan", [&] { return std::make_unique<ScanNode>(&table_, "t"); });
}

TEST(ExecReopenTest, Filter) {
  CheckReopen("Filter", [] {
    return std::make_unique<FilterNode>(
        Src(), std::make_unique<Comparison>(CmpOp::kGt, Col("a"), LitInt(1)));
  });
}

TEST(ExecReopenTest, Project) {
  CheckReopen("Project", [] {
    return std::make_unique<ProjectNode>(Src(),
                                         std::vector<std::string>{"b", "a"});
  });
}

TEST(ExecReopenTest, Sort) {
  CheckReopen("Sort", [] {
    return std::make_unique<SortNode>(
        Src(), std::vector<SortKey>{{"b", false}, {"a", true}});
  });
}

TEST(ExecReopenTest, Distinct) {
  CheckReopen("Distinct", [] {
    return std::make_unique<DistinctNode>(std::make_unique<ProjectNode>(
        Src(), std::vector<std::string>{"a"}));
  });
}

TEST(ExecReopenTest, Limit) {
  CheckReopen("Limit", [] { return std::make_unique<LimitNode>(Src(), 3); });
}

TEST(ExecReopenTest, Aggregate) {
  CheckReopen("Aggregate", [] {
    return std::make_unique<AggregateNode>(
        Src(), std::vector<std::string>{"a"},
        std::vector<AggSpec>{{AggFunc::kCountStar, "", "cnt"},
                             {AggFunc::kSum, "b", "sum_b"}});
  });
}

TEST(ExecReopenTest, HashJoin) {
  CheckReopen("HashJoin", [] {
    return std::make_unique<HashJoinNode>(
        Src(), RightSrc(), JoinType::kLeftOuter,
        std::vector<EquiPair>{{"a", "x"}}, /*residual=*/nullptr);
  });
}

TEST(ExecReopenTest, NestedLoopJoin) {
  CheckReopen("NestedLoopJoin", [] {
    return std::make_unique<NestedLoopJoinNode>(
        Src(), RightSrc(), JoinType::kInner, /*condition=*/nullptr);
  });
}

class ExecReopenIndexJoinTest : public ::testing::Test {
 protected:
  Table right_ = RightTable();
  HashIndex index_{right_, right_.schema().IndexOfExact("x")};
};

TEST_F(ExecReopenIndexJoinTest, IndexJoin) {
  CheckReopen("IndexJoin", [&] {
    return std::make_unique<IndexJoinNode>(
        Src(), &right_, "r", &index_, "a", JoinType::kLeftOuter,
        /*residual=*/nullptr);
  });
}

// LeftTable's rows as a columnar table of two batches (3 + 2 rows).
Table ColumnarLeftTable() {
  const Table rows = LeftTable();
  Table table(rows.schema());
  RowBatch batch;
  batch.Reset(table.schema());
  for (size_t i = 0; i < rows.rows().size(); ++i) {
    batch.AppendRow(rows.rows()[i]);
    if (i == 2) {
      table.AppendBatch(std::move(batch));
      batch = RowBatch();
      batch.Reset(table.schema());
    }
  }
  table.AppendBatch(std::move(batch));
  return table;
}

// A columnar TableSource hands its batches over by move, so a reopen
// cannot replay them and must fail loudly.
TEST(ExecReopenTest, TableSourceAfterBatchHandOverFailsLoudly) {
  TableSourceNode node(ColumnarLeftTable());
  RunSnapshot first;
  ASSERT_OK(DrainOnce(&node, /*use_batches=*/true, &first));
  EXPECT_EQ(first.stats.batches_out, 2);
  EXPECT_EQ(first.stats.rows_out, 5);
  RunSnapshot expected;
  expected.rows = LeftTable().rows();
  ExpectSameRows(expected, first, "columnar hand-over");

  const Status reopen = node.Open();
  EXPECT_FALSE(reopen.ok());
  EXPECT_NE(reopen.ToString().find("handed its batches over"),
            std::string::npos)
      << reopen.ToString();
}

// The row protocol over a columnar table materializes it once and then
// replays like a row table, reopen included.
TEST(ExecReopenTest, ColumnarTableSourceReplaysThroughRowProtocol) {
  TableSourceNode node(ColumnarLeftTable());
  RunSnapshot first;
  RunSnapshot second;
  ASSERT_OK(DrainOnce(&node, /*use_batches=*/false, &first));
  ASSERT_OK(DrainOnce(&node, /*use_batches=*/false, &second));
  RunSnapshot expected;
  expected.rows = LeftTable().rows();
  ExpectSameRows(expected, first, "first run");
  ExpectSameRows(expected, second, "reopened run");
}

}  // namespace
}  // namespace nestra
