// Table/column statistics and the cost-driven physical decisions built on
// them (DESIGN.md §13): load-time stats collection, the bottom-up
// estimator, zone-map granule pruning, the perfect (dense-array) hash join,
// and the est-vs-actual stage estimates surfaced
// through QueryProfile. The heart of the suite is identity: every
// cost-based choice is a physical optimization, so results must stay
// ROW-EXACTLY equal to the cost_based=false plan across num_threads
// {1, 2, 8} × {row, vectorized} — and the stats-soundness property test
// checks actual per-stage rows never exceed the propagated upper bounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "nra/executor.h"
#include "nra/explain.h"
#include "nra/profile.h"
#include "plan/binder.h"
#include "plan/stats/estimator.h"
#include "storage/catalog.h"
#include "storage/table_stats.h"
#include "telemetry/engine_metrics.h"
#include "telemetry/metrics.h"
#include "query_generator.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::I;
using testing_util::MakeTable;
using testing_util::N;
using testing_util::QueryGenerator;

// Row-exact equality (same contract as parallel_exec_test): deep
// Value::operator== per cell, so order drift or representation drift fails.
void ExpectRowExact(const Table& want, const Table& got,
                    const std::string& context) {
  ASSERT_EQ(want.num_rows(), got.num_rows()) << context;
  for (int64_t i = 0; i < want.num_rows(); ++i) {
    ASSERT_TRUE(want.rows()[static_cast<size_t>(i)] ==
                got.rows()[static_cast<size_t>(i)])
        << context << "\nfirst divergence at row " << i;
  }
}

// ---------- load-time collection ----------

TEST(TableStatsTest, CollectsColumnRangesNullsAndDistinct) {
  Table t = MakeTable({"k", "v", "s"}, {});
  for (int64_t i = 1; i <= 2500; ++i) {
    Row r;
    r.Append(Value::Int64(i));
    r.Append(i % 10 == 0 ? Value::Null() : Value::Int64(i % 100));
    r.Append(Value::String("tag" + std::to_string(i % 7)));
    t.AppendUnchecked(std::move(r));
  }
  const TableStats stats = CollectTableStats(t);
  ASSERT_EQ(stats.row_count, 2500);
  ASSERT_EQ(stats.columns.size(), 3u);

  const ColumnStats& k = stats.columns[0];
  EXPECT_EQ(k.null_count, 0);
  EXPECT_TRUE(k.has_range);
  EXPECT_TRUE(k.integer_only);
  EXPECT_EQ(k.min_i64, 1);
  EXPECT_EQ(k.max_i64, 2500);
  EXPECT_TRUE(k.distinct_exact);
  EXPECT_EQ(k.distinct, 2500);

  const ColumnStats& v = stats.columns[1];
  EXPECT_EQ(v.null_count, 250);
  EXPECT_EQ(v.non_null_count, 2250);
  EXPECT_TRUE(v.integer_only);
  EXPECT_EQ(v.min_i64, 1);   // i % 100, multiples of 10 are NULL, 0 never
  EXPECT_EQ(v.max_i64, 99);  // appears as a non-NULL value here
  EXPECT_EQ(v.distinct, 90);

  const ColumnStats& s = stats.columns[2];
  EXPECT_FALSE(s.has_range);  // strings carry no numeric range
  EXPECT_EQ(s.distinct, 7);
}

TEST(TableStatsTest, ZoneMapTracksPerGranuleRanges) {
  // Sorted values, so each granule's [min, max] is a tight window.
  Table t = MakeTable({"k", "v"}, {});
  const int64_t rows = 3 * kZoneGranuleRows + 100;
  for (int64_t i = 0; i < rows; ++i) {
    Row r;
    r.Append(Value::Int64(i + 1));
    r.Append(Value::Int64(i));
    t.AppendUnchecked(std::move(r));
  }
  const TableStats stats = CollectTableStats(t);
  ASSERT_EQ(stats.zones.num_granules, 4);
  ASSERT_EQ(stats.zones.num_columns, 2);
  for (int64_t g = 0; g < 4; ++g) {
    const ZoneEntry& z = stats.zones.At(g, 1);
    ASSERT_TRUE(z.has_range);
    EXPECT_EQ(z.min, static_cast<double>(g * kZoneGranuleRows));
    const int64_t last = std::min(rows, (g + 1) * kZoneGranuleRows) - 1;
    EXPECT_EQ(z.max, static_cast<double>(last));
  }
}

TEST(TableStatsTest, AllNullGranuleIsMarked) {
  Table t = MakeTable({"k", "v"}, {});
  for (int64_t i = 0; i < 2 * kZoneGranuleRows; ++i) {
    Row r;
    r.Append(Value::Int64(i + 1));
    // Second granule entirely NULL.
    r.Append(i < kZoneGranuleRows ? Value::Int64(i) : Value::Null());
    t.AppendUnchecked(std::move(r));
  }
  const TableStats stats = CollectTableStats(t);
  ASSERT_EQ(stats.zones.num_granules, 2);
  EXPECT_TRUE(stats.zones.At(0, 1).has_range);
  EXPECT_FALSE(stats.zones.At(0, 1).all_null);
  EXPECT_TRUE(stats.zones.At(1, 1).all_null);
}

// Pins the stats of the column-by-column collection over the columnar
// mirror to a row-at-a-time reference written here from scratch: the same
// counts, ranges and zones, distinct counts exact up to 2^16 distinct
// SqlHash values (MixHash is a bijection, so counting raw SqlHash values is
// the same set size) and HyperLogLog past that. The sketch estimates are
// pinned to the numbers the row-at-a-time collector produced.
TEST(TableStatsTest, ColumnarCollectionMatchesRowAtATimeReference) {
  constexpr int64_t kRows = 70000;  // 69 granules, the last one partial
  std::vector<Field> fields = {
      Field("k", TypeId::kInt64), Field("m16", TypeId::kInt64),
      Field("m17", TypeId::kInt64), Field("f", TypeId::kFloat64),
      Field("mix", TypeId::kInt64), Field("s", TypeId::kString),
      Field("d", TypeId::kDate)};
  Table t{Schema(fields)};
  for (int64_t i = 0; i < kRows; ++i) {
    Row r;
    r.Append(Value::Int64(i * 7919 % kRows));  // 70000 distinct -> sketch
    r.Append(Value::Int64(i % 65536));         // exactly 2^16 -> exact
    r.Append(Value::Int64(i % 65537));         // 2^16 + 1 -> sketch
    if (i % 11 == 0) {
      r.Append(Value::Null());
    } else if (i % 97 == 0) {
      r.Append(Value::Float64(std::nan("")));
    } else if (i % 5 == 0) {
      r.Append(Value::Float64(-0.0));  // equals 0.0: one distinct value
    } else if (i % 5 == 1) {
      r.Append(Value::Float64(0.0));
    } else {
      r.Append(Value::Float64(static_cast<double>(i % 3000) * 0.5));
    }
    // Integral doubles among ints (generic storage): 1.0 and 1 are one
    // distinct value under SQL equality.
    r.Append(i % 3 == 0 ? Value::Float64(static_cast<double>(i % 50))
                        : Value::Int64(i % 50));
    r.Append(i % 13 == 0 ? Value::Null()
                         : Value::String("s" + std::to_string(i % 400)));
    r.Append(i % 7 == 0 ? Value::Null() : Value::Date(8000 + i % 900));
    t.AppendUnchecked(std::move(r));
  }
  const TableStats stats = CollectTableStats(t);
  ASSERT_EQ(stats.row_count, kRows);
  ASSERT_EQ(stats.columns.size(), fields.size());
  ASSERT_EQ(stats.zones.num_granules,
            (kRows + kZoneGranuleRows - 1) / kZoneGranuleRows);

  const auto same = [](double a, double b) {
    return a == b || (std::isnan(a) && std::isnan(b));
  };
  for (int c = 0; c < static_cast<int>(fields.size()); ++c) {
    ColumnStats want;
    std::unordered_set<size_t> distinct;
    bool strings = false;
    std::vector<ZoneEntry> zones(
        static_cast<size_t>(stats.zones.num_granules));
    for (int64_t i = 0; i < kRows; ++i) {
      const Value& v = t.rows()[static_cast<size_t>(i)][c];
      if (v.is_null()) {
        ++want.null_count;
        continue;
      }
      ++want.non_null_count;
      distinct.insert(v.SqlHash());
      ZoneEntry& z = zones[static_cast<size_t>(i / kZoneGranuleRows)];
      z.all_null = false;
      if (v.is_string()) {
        strings = true;
        continue;
      }
      const double d = *v.AsDouble();
      if (std::isnan(d)) {
        // A NaN passes =, <= and >= against any literal: the granule's
        // zone spans the whole line, wherever the NaN sits.
        z.has_range = true;
        z.min = -std::numeric_limits<double>::infinity();
        z.max = std::numeric_limits<double>::infinity();
      } else if (!z.has_range) {
        z.has_range = true;
        z.min = z.max = d;
      } else {
        z.min = std::min(z.min, d);
        z.max = std::max(z.max, d);
      }
      if (!want.has_range) {
        want.has_range = true;
        want.min = want.max = d;
        want.integer_only = v.is_int();
        if (v.is_int()) want.min_i64 = want.max_i64 = v.int64();
        continue;
      }
      want.min = std::min(want.min, d);
      want.max = std::max(want.max, d);
      if (!v.is_int()) {
        want.integer_only = false;
      } else if (want.integer_only) {
        want.min_i64 = std::min(want.min_i64, v.int64());
        want.max_i64 = std::max(want.max_i64, v.int64());
      }
    }
    if (strings) want.has_range = want.integer_only = false;
    if (!want.integer_only) want.min_i64 = want.max_i64 = 0;

    const ColumnStats& got = stats.columns[static_cast<size_t>(c)];
    const std::string name = fields[static_cast<size_t>(c)].name;
    EXPECT_EQ(got.null_count, want.null_count) << name;
    EXPECT_EQ(got.non_null_count, want.non_null_count) << name;
    EXPECT_EQ(got.has_range, want.has_range) << name;
    if (want.has_range) {
      EXPECT_TRUE(same(got.min, want.min)) << name;
      EXPECT_TRUE(same(got.max, want.max)) << name;
    }
    EXPECT_EQ(got.integer_only, want.integer_only) << name;
    EXPECT_EQ(got.min_i64, want.min_i64) << name;
    EXPECT_EQ(got.max_i64, want.max_i64) << name;
    const bool exact = distinct.size() <= (size_t{1} << 16);
    EXPECT_EQ(got.distinct_exact, exact) << name;
    if (exact) {
      EXPECT_EQ(got.distinct, static_cast<int64_t>(distinct.size())) << name;
    }
    for (int64_t g = 0; g < stats.zones.num_granules; ++g) {
      const ZoneEntry& zg = stats.zones.At(g, c);
      const ZoneEntry& zw = zones[static_cast<size_t>(g)];
      EXPECT_EQ(zg.all_null, zw.all_null) << name << " granule " << g;
      EXPECT_EQ(zg.has_range, zw.has_range) << name << " granule " << g;
      EXPECT_TRUE(same(zg.min, zw.min)) << name << " granule " << g;
      EXPECT_TRUE(same(zg.max, zw.max)) << name << " granule " << g;
    }
  }
  EXPECT_EQ(stats.columns[1].distinct, 65536);
  EXPECT_EQ(stats.columns[4].distinct, 50);
  // HyperLogLog past the switch, as the row-at-a-time collector had it.
  EXPECT_EQ(stats.columns[0].distinct, 65861);
  EXPECT_EQ(stats.columns[2].distinct, 62001);
}

TEST(TableStatsTest, CatalogServesStatsAndRefreshesOnReRegister) {
  Catalog catalog;
  Table t = MakeTable({"k", "v"}, {{I(1), I(10)}, {I(2), I(20)}});
  ASSERT_OK(catalog.RegisterTable("t", std::move(t), "k"));
  {
    ASSERT_OK_AND_ASSIGN(const TableStats* stats, catalog.GetStats("t"));
    EXPECT_EQ(stats->row_count, 2);
    EXPECT_EQ(stats->columns[1].max_i64, 20);
  }
  Table t2 = MakeTable({"k", "v"}, {{I(1), I(10)}, {I(2), I(999)}});
  ASSERT_OK(catalog.DropTable("t"));
  ASSERT_OK(catalog.RegisterTable("t", std::move(t2), "k"));
  {
    ASSERT_OK_AND_ASSIGN(const TableStats* stats, catalog.GetStats("t"));
    EXPECT_EQ(stats->columns[1].max_i64, 999);
  }
  EXPECT_FALSE(catalog.GetStats("missing").ok());
}

// ---------- cost decisions (estimator + shared predicates) ----------

// `probe` (3000 rows, pk dense) links into `dim` (2048 rows, dk dense
// 1..2048): the child base clears kCostMinBuildRows and its key column is
// dense, so JoinWithChild gets perfect (dense-array) keying.
void RegisterJoinTables(Catalog* catalog) {
  Table probe = MakeTable({"pk", "p1"}, {});
  for (int64_t i = 1; i <= 3000; ++i) {
    Row r;
    r.Append(Value::Int64(i));
    r.Append(Value::Int64(i));
    probe.AppendUnchecked(std::move(r));
  }
  ASSERT_OK(catalog->RegisterTable("probe", std::move(probe), "pk"));

  Table dim = MakeTable({"dk", "d1", "d2"}, {});
  for (int64_t i = 1; i <= 2048; ++i) {
    Row r;
    r.Append(Value::Int64(i));
    r.Append(Value::Int64(i));
    r.Append(Value::Int64(1 + (i % 400)));  // 400 distinct, fanout ~5
    dim.AppendUnchecked(std::move(r));
  }
  ASSERT_OK(catalog->RegisterTable("dim", std::move(dim), "dk"));

  Table small = MakeTable({"sk", "s1"}, {});
  for (int64_t i = 1; i <= 400; ++i) {
    Row r;
    r.Append(Value::Int64(i));
    r.Append(Value::Int64(i));
    small.AppendUnchecked(std::move(r));
  }
  ASSERT_OK(catalog->RegisterTable("small", std::move(small), "sk"));
}

constexpr const char* kPerfectJoinSql =
    "select p.pk from probe p where p.p1 in "
    "(select d.d1 from dim d where d.dk = p.pk)";

// Child base (2048 rows) > 2 × outer (400 rows). The build side stays the
// child base even though it dwarfs the outer input.
constexpr const char* kBuildSwapSql =
    "select s.sk from small s where s.s1 in "
    "(select d.d1 from dim d where d.d2 = s.sk)";

TEST(CostDecisionTest, ChoosesPerfectKeyingForDenseChildKey) {
  Catalog catalog;
  RegisterJoinTables(&catalog);
  ASSERT_OK_AND_ASSIGN(QueryBlockPtr root,
                       ParseAndBind(kPerfectJoinSql, catalog));
  const std::vector<const QueryBlock*> path{root.get()};
  const JoinBuildHints hints =
      ChoosesJoinStrategy(*root->children[0], path, catalog);
  EXPECT_TRUE(hints.perfect);
  EXPECT_EQ(hints.perfect_min, 1);
  EXPECT_EQ(hints.perfect_max, 2048);
  EXPECT_EQ(hints.est_right_rows, 2048);
}

TEST(CostDecisionTest, KeepsChildBuildWhenChildDwarfsOuter) {
  Catalog catalog;
  RegisterJoinTables(&catalog);
  ASSERT_OK_AND_ASSIGN(QueryBlockPtr root,
                       ParseAndBind(kBuildSwapSql, catalog));
  const std::vector<const QueryBlock*> path{root.get()};
  const JoinBuildHints hints =
      ChoosesJoinStrategy(*root->children[0], path, catalog);
  EXPECT_EQ(hints.est_left_rows, 400);
  EXPECT_EQ(hints.est_right_rows, 2048);
  // Perfect keying is judged on the child key d.d2: 2048 build rows clear
  // kCostMinBuildRows and its span [1, 400] is dense.
  EXPECT_TRUE(hints.perfect);
  EXPECT_EQ(hints.perfect_min, 1);
  EXPECT_EQ(hints.perfect_max, 400);
}

TEST(CostDecisionTest, SparseOrMissingStatsStayGeneric) {
  Catalog catalog;
  RegisterJoinTables(&catalog);
  // Re-register dim with a sparse key: span 2048000 > 8 × 2048 rows.
  Table sparse = MakeTable({"dk", "d1", "d2"}, {});
  for (int64_t i = 1; i <= 2048; ++i) {
    Row r;
    r.Append(Value::Int64(i * 1000));
    r.Append(Value::Int64(i));
    r.Append(Value::Int64(1 + (i % 400)));
    sparse.AppendUnchecked(std::move(r));
  }
  ASSERT_OK(catalog.DropTable("dim"));
  ASSERT_OK(catalog.RegisterTable("dim", std::move(sparse), "dk"));
  ASSERT_OK_AND_ASSIGN(QueryBlockPtr root,
                       ParseAndBind(kPerfectJoinSql, catalog));
  const std::vector<const QueryBlock*> path{root.get()};
  EXPECT_TRUE(
      ChoosesJoinStrategy(*root->children[0], path, catalog).IsDefault());
}

TEST(CostDecisionTest, ExplainShowsPerfectStrategyOnlyWhenChosen) {
  Catalog catalog;
  RegisterJoinTables(&catalog);
  NraOptions opts = NraOptions::Optimized();
  ASSERT_OK_AND_ASSIGN(std::string dense,
                       ExplainSql(kPerfectJoinSql, catalog, opts));
  EXPECT_NE(dense.find("perfect dense-array hash"), std::string::npos)
      << dense;
  opts.cost_based = false;
  ASSERT_OK_AND_ASSIGN(std::string off,
                       ExplainSql(kPerfectJoinSql, catalog, opts));
  EXPECT_EQ(off.find("perfect dense-array hash"), std::string::npos) << off;
  opts.cost_based = true;
  ASSERT_OK_AND_ASSIGN(std::string big_child,
                       ExplainSql(kBuildSwapSql, catalog, opts));
  EXPECT_NE(big_child.find("perfect dense-array hash"), std::string::npos)
      << big_child;
  EXPECT_EQ(big_child.find("build=left"), std::string::npos) << big_child;
}

// ---------- identity: cost-based plans change nothing but speed ----------

struct EngineCombo {
  int threads;
  bool vectorized;
};

constexpr EngineCombo kCombos[] = {
    {1, false}, {1, true}, {2, false}, {2, true}, {8, false}, {8, true}};

// Runs `sql` with cost_based off (serial row engine) as the reference, then
// asserts every (threads, engine, cost_based) combination reproduces it
// row-exactly.
void ExpectCostIdentity(const Catalog& catalog, const std::string& sql) {
  NraOptions ref_opts = NraOptions::Optimized();
  ref_opts.cost_based = false;
  ref_opts.num_threads = 1;
  NraExecutor ref_exec(catalog, ref_opts);
  ASSERT_OK_AND_ASSIGN(Table reference, ref_exec.ExecuteSql(sql));

  for (const EngineCombo& combo : kCombos) {
    for (const bool cost_based : {false, true}) {
      NraOptions opts = NraOptions::Optimized();
      opts.cost_based = cost_based;
      opts.num_threads = combo.threads;
      opts.vectorized = combo.vectorized;
      NraExecutor exec(catalog, opts);
      ASSERT_OK_AND_ASSIGN(Table got, exec.ExecuteSql(sql));
      ExpectRowExact(reference, got,
                     sql + "\nthreads=" + std::to_string(combo.threads) +
                         " vectorized=" + std::to_string(combo.vectorized) +
                         " cost_based=" + std::to_string(cost_based));
    }
  }
}

TEST(CostIdentityTest, PerfectJoinMatchesGenericEverywhere) {
  Catalog catalog;
  RegisterJoinTables(&catalog);
  ExpectCostIdentity(catalog, kPerfectJoinSql);
}

TEST(CostIdentityTest, BuildSwapMatchesDefaultEverywhere) {
  Catalog catalog;
  RegisterJoinTables(&catalog);
  ExpectCostIdentity(catalog, kBuildSwapSql);
}

TEST(CostIdentityTest, NullKeysFallBackAndStayIdentical) {
  Catalog catalog;
  RegisterJoinTables(&catalog);
  // NULLs in both the outer linking column and the child key column: the
  // perfect build skips NULL keys and the NOT IN epilogue must still see
  // build_has_null_key_.
  Table nt = MakeTable({"nk", "n1"}, {});
  for (int64_t i = 1; i <= 1500; ++i) {
    Row r;
    r.Append(Value::Int64(i));
    r.Append(i % 5 == 0 ? Value::Null() : Value::Int64(i));
    nt.AppendUnchecked(std::move(r));
  }
  ASSERT_OK(catalog.RegisterTable("nt", std::move(nt), "nk"));
  ExpectCostIdentity(catalog,
                     "select p.pk from probe p where p.p1 not in "
                     "(select n.n1 from nt n where n.nk = p.pk)");
}

// ---------- zone-map pruning ----------

class ZonePruneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // 16 granules of sorted values: a high-cut predicate provably empties
    // most of them. kMinPruneGranules needs >= 8 granules before the
    // pruned scan path engages at all.
    Table t = MakeTable({"zk", "zv", "zs"}, {});
    const int64_t rows = 16 * kZoneGranuleRows;
    for (int64_t i = 0; i < rows; ++i) {
      Row r;
      r.Append(Value::Int64(i + 1));
      r.Append(Value::Int64(i));
      r.Append(i % 97 == 0 ? Value::Null() : Value::Int64(i % 97));
      t.AppendUnchecked(std::move(r));
    }
    ASSERT_OK(catalog_.RegisterTable("zt", std::move(t), "zk"));
  }

  Catalog catalog_;
};

TEST_F(ZonePruneTest, PrunedScanIsRowExactAcrossEnginesAndThreads) {
  ExpectCostIdentity(catalog_,
                     "select z.zk, z.zs from zt z where z.zv >= 15000");
  ExpectCostIdentity(catalog_,
                     "select z.zk from zt z where z.zv = 4242");
  // IS NOT NULL terms and string-free residuals mix with the range term.
  ExpectCostIdentity(
      catalog_,
      "select z.zk from zt z where z.zv < 800 and z.zs is not null");
}

TEST_F(ZonePruneTest, PruningSkipsGranulesDeterministically) {
  telemetry::SetMetricsEnabled(true);
  telemetry::MetricsRegistry::Global().ResetValues();
  const telemetry::EngineMetrics& m = telemetry::Metrics();

  std::vector<double> pruned_per_combo;
  for (const EngineCombo& combo : kCombos) {
    const double before = m.zone_granules_pruned_total->Value();
    const double scanned_before = m.zone_granules_scanned_total->Value();
    NraOptions opts = NraOptions::Optimized();
    opts.num_threads = combo.threads;
    opts.vectorized = combo.vectorized;
    NraExecutor exec(catalog_, opts);
    ASSERT_OK_AND_ASSIGN(
        Table got,
        exec.ExecuteSql("select z.zk from zt z where z.zv >= 15000"));
    EXPECT_EQ(got.num_rows(), 16 * kZoneGranuleRows - 15000);
    pruned_per_combo.push_back(m.zone_granules_pruned_total->Value() -
                               before);
    // Every granule is either scanned or pruned — no third bucket.
    EXPECT_EQ((m.zone_granules_scanned_total->Value() - scanned_before) +
                  pruned_per_combo.back(),
              16.0);
  }
  telemetry::SetMetricsEnabled(false);
  telemetry::MetricsRegistry::Global().ResetValues();

  // values 15000.. live in granules 14 and 15: 14 of 16 pruned, and the
  // count is identical for every engine × thread combination.
  for (const double pruned : pruned_per_combo) {
    EXPECT_EQ(pruned, 14.0);
  }
}

TEST_F(ZonePruneTest, SmallTablesNeverPrune) {
  telemetry::SetMetricsEnabled(true);
  telemetry::MetricsRegistry::Global().ResetValues();
  const telemetry::EngineMetrics& m = telemetry::Metrics();
  Catalog catalog;
  testing_util::RegisterPaperRelations(&catalog);
  NraExecutor exec(catalog, NraOptions::Optimized());
  ASSERT_OK_AND_ASSIGN(Table got,
                       exec.ExecuteSql("select r.a from r where r.a > 2"));
  EXPECT_EQ(got.num_rows(), 1);
  // Below kMinPruneGranules the pre-stats scan runs byte for byte: the
  // zone counters never move, so tier-1 plans and IoSim charges are
  // untouched at test scale.
  EXPECT_EQ(m.zone_granules_pruned_total->Value(), 0.0);
  EXPECT_EQ(m.zone_granules_scanned_total->Value(), 0.0);
  telemetry::SetMetricsEnabled(false);
  telemetry::MetricsRegistry::Global().ResetValues();
}

// ---------- est vs. actual in the profile ----------

TEST(StageEstimateTest, ProfileCarriesEstimatesAndRendersThem) {
  Catalog catalog;
  RegisterJoinTables(&catalog);
  NraOptions opts = NraOptions::Optimized();
  opts.profile = true;
  NraExecutor exec(catalog, opts);
  QueryProfile profile;
  ASSERT_OK_AND_ASSIGN(Table result,
                       exec.ExecuteSql(kPerfectJoinSql, nullptr, &profile));
  (void)result;
  ASSERT_FALSE(profile.estimates.empty());
  // The base scans have point estimates; every estimate is a sound bound.
  bool rendered_any = false;
  for (const ProfiledStage& stage : profile.stages()) {
    const auto it = profile.estimates.find(stage.label);
    if (it == profile.estimates.end()) continue;
    rendered_any = true;
    ASSERT_GE(it->second.bound, 0.0) << stage.label;
    EXPECT_LE(static_cast<double>(stage.rows_out), it->second.bound + 0.5)
        << stage.label;
  }
  EXPECT_TRUE(rendered_any);
  const std::string text = profile.ToString();
  EXPECT_NE(text.find(" est"), std::string::npos) << text;
  const std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"est_rows"), std::string::npos) << json;
}

TEST(StageEstimateTest, ExplainAnalyzePrintsEstVsActual) {
  Catalog catalog;
  RegisterJoinTables(&catalog);
  ASSERT_OK_AND_ASSIGN(
      std::string text,
      ExplainAnalyzeSql(kPerfectJoinSql, catalog, NraOptions::Optimized()));
  EXPECT_NE(text.find("rows_out="), std::string::npos);
  EXPECT_NE(text.find(" est"), std::string::npos) << text;
}

// ---------- stats soundness over the fuzz corpus ----------

// For every generated query and every routing family, each profiled
// stage's actual rows_out must respect the estimator's propagated upper
// bound. A violation means a "sound" bound wasn't.
class StatsSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatsSoundnessTest, ActualRowsNeverExceedPropagatedBounds) {
  QueryGenerator gen(GetParam());
  Catalog catalog;
  gen.PopulateTables(&catalog);

  std::vector<NraOptions> variants;
  variants.push_back(NraOptions::Optimized());
  {
    NraOptions o = NraOptions::Optimized();
    o.push_down_nest = true;
    o.rewrite_positive = true;
    variants.push_back(o);
  }
  {
    NraOptions o = NraOptions::Optimized();
    o.bottom_up_linear = true;
    variants.push_back(o);
  }
  for (NraOptions& o : variants) o.profile = true;

  for (int q = 0; q < 25; ++q) {
    const std::string sql = gen.RandomQuery();
    for (const NraOptions& opts : variants) {
      NraExecutor exec(catalog, opts);
      QueryProfile profile;
      const Result<Table> result = exec.ExecuteSql(sql, nullptr, &profile);
      if (!result.ok()) continue;  // generator shapes the binder rejects
      for (const ProfiledStage& stage : profile.stages()) {
        const auto it = profile.estimates.find(stage.label);
        if (it == profile.estimates.end() || it->second.bound < 0) continue;
        EXPECT_LE(static_cast<double>(stage.rows_out), it->second.bound + 0.5)
            << sql << "\nstage " << stage.label << " rows_out="
            << stage.rows_out << " bound=" << it->second.bound << " ("
            << opts.ToString() << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsSoundnessTest,
                         ::testing::Values(11, 23, 37, 58));

}  // namespace
}  // namespace nestra
