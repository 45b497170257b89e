// The columnar mirror built at Catalog::RegisterTable and the one
// base-table ScanFilter that reads it (DESIGN.md §8 and §13):
//
//  * the mirror is cell-identical to the row store — NULLs, strings, dates,
//    a mixed-type column in generic Value storage, a partial last granule,
//    empty and one-row tables;
//  * ScanFilter returns the rows, in the order, and charges the IoSim
//    totals of the ScanNode + FilterNode oracle (the one-thread row
//    engine) for threads {1, 2, 8} x {row, vectorized} x {2VL, 3VL} x
//    {pruned, unpruned} x {compiled, row predicate};
//  * a drop + re-register racing with readers never serves a stale
//    mirror, neither to catalog lookups nor to queries (TSan-covered).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nra/planner.h"
#include "nra/profile.h"
#include "plan/binder.h"
#include "server/connection_manager.h"
#include "server/session.h"
#include "storage/catalog.h"
#include "storage/columnar_mirror.h"
#include "storage/io_sim.h"
#include "test_util.h"

namespace nestra {
namespace {

// ---------- mirror layout ----------

// Every cell of the mirror must equal (deep Value ==) the row store's.
void ExpectMirrorMatches(const Catalog& catalog, const std::string& name) {
  ASSERT_OK_AND_ASSIGN(const Table* table, catalog.GetTable(name));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const ColumnarMirror> mirror,
                       catalog.GetMirror(name));
  EXPECT_EQ(mirror->table(), table);
  const int64_t n = table->num_rows();
  ASSERT_EQ(mirror->num_rows(), n);
  ASSERT_EQ(mirror->num_granules(),
            (n + kZoneGranuleRows - 1) / kZoneGranuleRows);
  for (int64_t g = 0; g < mirror->num_granules(); ++g) {
    const RowBatch& batch = mirror->granule(g);
    const int64_t begin = mirror->GranuleBegin(g);
    const int64_t end = mirror->GranuleEnd(g);
    ASSERT_EQ(batch.num_rows(), end - begin);
    ASSERT_EQ(batch.num_columns(), table->schema().num_fields());
    for (int64_t i = begin; i < end; ++i) {
      const Row& row = table->rows()[static_cast<size_t>(i)];
      for (int c = 0; c < batch.num_columns(); ++c) {
        ASSERT_TRUE(batch.column(c).GetValue(i - begin) == row[c])
            << name << " row " << i << " col " << c;
      }
    }
  }
}

Table MixedTable(int64_t rows) {
  Table t{Schema({Field("k", TypeId::kInt64, false),
                  Field("v", TypeId::kInt64, true),
                  Field("f", TypeId::kFloat64, true),
                  Field("s", TypeId::kString, true),
                  Field("d", TypeId::kDate, true)})};
  for (int64_t i = 0; i < rows; ++i) {
    Row r;
    r.Append(Value::Int64(i));
    // Granule 1 of `v` holds one double among its ints: that granule's
    // column falls back to generic Value storage, the others stay typed.
    if (i % 17 == 3) {
      r.Append(Value::Null());
    } else if (i == 1500) {
      r.Append(Value::Float64(2.5));
    } else {
      r.Append(Value::Int64(i % 101));
    }
    r.Append(i % 11 == 0 ? Value::Null() : Value::Float64(i * 0.25));
    r.Append(i % 13 == 0 ? Value::Null()
                         : Value::String("s" + std::to_string(i % 29)));
    r.Append(i % 7 == 0 ? Value::Null() : Value::Date(9000 + i % 400));
    t.AppendUnchecked(std::move(r));
  }
  return t;
}

TEST(ColumnarMirrorTest, CellIdenticalToRowStore) {
  Catalog catalog;
  // 2500 rows: two full granules and a partial third.
  ASSERT_OK(catalog.RegisterTable("mixed", MixedTable(2500), "k"));
  ASSERT_OK(catalog.RegisterTable("one", MixedTable(1), "k"));
  ASSERT_OK(catalog.RegisterTable("empty", MixedTable(0), "k"));
  ASSERT_OK(catalog.RegisterTable("exact", MixedTable(2 * kZoneGranuleRows),
                                  "k"));
  for (const char* name : {"mixed", "one", "empty", "exact"}) {
    ExpectMirrorMatches(catalog, name);
  }

  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const ColumnarMirror> mixed,
                       catalog.GetMirror("mixed"));
  ASSERT_EQ(mixed->num_granules(), 3);
  EXPECT_EQ(mixed->GranuleEnd(2), 2500);
  EXPECT_EQ(mixed->granule(2).num_rows(), 2500 - 2 * kZoneGranuleRows);
  // Only the granule holding the double is generic.
  EXPECT_FALSE(mixed->granule(0).column(1).generic());
  EXPECT_TRUE(mixed->granule(1).column(1).generic());
  EXPECT_FALSE(mixed->granule(2).column(1).generic());
  EXPECT_FALSE(mixed->granule(0).column(3).generic());

  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const ColumnarMirror> empty,
                       catalog.GetMirror("empty"));
  EXPECT_EQ(empty->num_granules(), 0);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const ColumnarMirror> one,
                       catalog.GetMirror("one"));
  ASSERT_EQ(one->num_granules(), 1);
  EXPECT_EQ(one->granule(0).num_rows(), 1);
}

TEST(ColumnarMirrorTest, ReRegisterReplacesMirrorAndDropKeepsHeldCopy) {
  Catalog catalog;
  ASSERT_OK(catalog.RegisterTable("t", MixedTable(100), "k"));
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const ColumnarMirror> old_mirror,
                       catalog.GetMirror("t"));
  const uint64_t old_version = catalog.TableVersion("t");
  ASSERT_OK(catalog.DropTable("t"));
  EXPECT_FALSE(catalog.GetMirror("t").ok());
  ASSERT_OK(catalog.RegisterTable("t", MixedTable(3000), "k"));
  EXPECT_GT(catalog.TableVersion("t"), old_version);
  ASSERT_OK_AND_ASSIGN(std::shared_ptr<const ColumnarMirror> new_mirror,
                       catalog.GetMirror("t"));
  EXPECT_NE(new_mirror.get(), old_mirror.get());
  EXPECT_EQ(new_mirror->num_rows(), 3000);
  ExpectMirrorMatches(catalog, "t");
  // The held copy of the dropped mirror is still whole.
  EXPECT_EQ(old_mirror->num_rows(), 100);
  EXPECT_EQ(old_mirror->granule(0).column(0).GetValue(99), Value::Int64(99));
}

// ---------- ScanFilter vs the ScanNode + FilterNode oracle ----------

// 17 granules (the last one partial), enough for zone-map pruning
// (kMinPruneGranules = 8). zv is NULL on 5% of rows, zk is the proven
// non-NULL key, zs has NULLs too.
constexpr int64_t kScanRows = 16 * kZoneGranuleRows + 300;

class ScanFilterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table t{Schema({Field("zk", TypeId::kInt64, false),
                    Field("zv", TypeId::kInt64, true),
                    Field("zf", TypeId::kFloat64, true),
                    Field("zs", TypeId::kString, true)})};
    for (int64_t i = 0; i < kScanRows; ++i) {
      Row r;
      r.Append(Value::Int64(i));
      r.Append(i % 20 == 7 ? Value::Null() : Value::Int64(i));
      r.Append(Value::Float64(static_cast<double>(i) * 0.5));
      r.Append(i % 13 == 0 ? Value::Null()
                           : Value::String("v" + std::to_string(i % 31)));
      t.AppendUnchecked(std::move(r));
    }
    ASSERT_OK(catalog_.RegisterTable("zt", std::move(t), "zk"));
    sim_.RegisterTable(*catalog_.GetTable("zt"));
    IoSim::Install(&sim_);
  }

  void TearDown() override { IoSim::Install(nullptr); }

  struct Run {
    Table rows;
    int64_t hits = 0;
    int64_t seq_misses = 0;
    int64_t random_misses = 0;
    std::string op;  // "<name>(<detail>)" of the stage's root operator
  };

  Result<Run> Scan(const QueryBlock& block, int threads, bool vectorized,
                   bool two_valued, bool cost_based) {
    sim_.Reset();
    QueryProfile profile;
    NESTRA_ASSIGN_OR_RETURN(
        Table rows,
        EvalBlockBase(block, catalog_, block.attributes, threads, &profile,
                      vectorized, two_valued, cost_based));
    Run run;
    run.rows = std::move(rows);
    run.hits = sim_.hits();
    run.seq_misses = sim_.seq_misses();
    run.random_misses = sim_.random_misses();
    if (profile.stages().size() == 1 && profile.stages()[0].has_tree) {
      const ProfiledOperator& root = profile.stages()[0].tree;
      run.op = root.name + "(" + root.detail + ")";
    }
    return run;
  }

  Catalog catalog_;
  IoSim sim_;
};

void ExpectSameRows(const Table& want, const Table& got,
                    const std::string& context) {
  ASSERT_EQ(want.num_rows(), got.num_rows()) << context;
  for (int64_t i = 0; i < want.num_rows(); ++i) {
    ASSERT_TRUE(want.rows()[static_cast<size_t>(i)] ==
                got.rows()[static_cast<size_t>(i)])
        << context << "\nfirst divergence at row " << i;
  }
}

TEST_F(ScanFilterTest, MatchesScanNodeFilterNodeOracle) {
  struct Case {
    const char* sql;
    bool compiles;
  };
  const Case cases[] = {
      // Compiled kernels; zv >= 15000 prunes granules 0..13.
      {"select z.zk from zt z where z.zv >= 15000 and z.zk > 10", true},
      // NULL-sensitive terms (3VL on zv and zs).
      {"select z.zk from zt z where z.zv < 900 and z.zs is not null", true},
      // The OR has no kernel: the row BoundPredicate runs, still pruned by
      // the zv range term.
      {"select z.zk from zt z "
       "where z.zv >= 15000 and (z.zk > 16000 or z.zs is null)",
       false},
      // Arithmetic has no kernel either.
      {"select z.zk from zt z where z.zv <= 2000 and z.zk + 1 > z.zf", false},
  };
  for (const Case& c : cases) {
    ASSERT_OK_AND_ASSIGN(QueryBlockPtr block, ParseAndBind(c.sql, catalog_));
    ASSERT_OK_AND_ASSIGN(Run oracle, Scan(*block, 1, false, false, false));
    ASSERT_GT(oracle.rows.num_rows(), 0) << c.sql;
    std::string pruned_io;
    for (const int threads : {1, 2, 8}) {
      for (const bool vectorized : {false, true}) {
        for (const bool two_valued : {false, true}) {
          for (const bool cost_based : {false, true}) {
            const std::string ctx =
                std::string(c.sql) + " threads=" + std::to_string(threads) +
                " vectorized=" + std::to_string(vectorized) +
                " 2vl=" + std::to_string(two_valued) +
                " cost=" + std::to_string(cost_based);
            ASSERT_OK_AND_ASSIGN(
                Run run, Scan(*block, threads, vectorized, two_valued,
                              cost_based));
            ExpectSameRows(oracle.rows, run.rows, ctx);
            if (!cost_based && threads == 1 && !vectorized) {
              EXPECT_EQ(run.op, "Filter()") << ctx;  // the oracle itself
              continue;
            }
            EXPECT_EQ(run.op.rfind("ScanFilter(", 0), 0u) << ctx << run.op;
            EXPECT_EQ(run.op.find("row-pred") == std::string::npos,
                      c.compiles)
                << ctx << run.op;
            if (!cost_based) {
              EXPECT_EQ(run.op.find("granules=17/17"), 11u) << ctx << run.op;
              EXPECT_EQ(run.hits, oracle.hits) << ctx;
              EXPECT_EQ(run.seq_misses, oracle.seq_misses) << ctx;
              EXPECT_EQ(run.random_misses, oracle.random_misses) << ctx;
              continue;
            }
            // Pruned: fewer granules, and the same charges for every
            // engine, thread count and predicate form.
            EXPECT_EQ(run.op.find("granules=17/17"), std::string::npos)
                << ctx << run.op;
            EXPECT_LT(run.hits + run.seq_misses, kScanRows) << ctx;
            const std::string io = std::to_string(run.hits) + "/" +
                                   std::to_string(run.seq_misses) + "/" +
                                   std::to_string(run.random_misses);
            if (pruned_io.empty()) pruned_io = io;
            EXPECT_EQ(io, pruned_io) << ctx;
          }
        }
      }
    }
  }
}

TEST_F(ScanFilterTest, UnfilteredScanCopiesEveryRow) {
  ASSERT_OK_AND_ASSIGN(QueryBlockPtr block,
                       ParseAndBind("select z.zk, z.zs from zt z", catalog_));
  ASSERT_OK_AND_ASSIGN(Run oracle, Scan(*block, 1, false, false, false));
  ASSERT_EQ(oracle.rows.num_rows(), kScanRows);
  for (const int threads : {1, 2, 8}) {
    ASSERT_OK_AND_ASSIGN(Run run, Scan(*block, threads, true, true, true));
    ExpectSameRows(oracle.rows, run.rows,
                   "threads=" + std::to_string(threads));
    EXPECT_EQ(run.op, "ScanFilter(granules=17/17)");
    EXPECT_EQ(run.hits, oracle.hits);
    EXPECT_EQ(run.seq_misses, oracle.seq_misses);
  }
}

// A NaN compares "equal" to every number (Value::Apply), so it passes =,
// <= and >= against any literal. A granule holding one must therefore
// never be pruned by those terms, wherever in the granule the NaN sits.
TEST_F(ScanFilterTest, NaNRowsSurviveZonePruning) {
  constexpr int64_t kGranules = 10;
  constexpr int64_t kRows = kGranules * kZoneGranuleRows;
  Table t{Schema({Field("nk", TypeId::kInt64, false),
                  Field("nf", TypeId::kFloat64, false)})};
  for (int64_t i = 0; i < kRows; ++i) {
    const double f = i % kZoneGranuleRows == 5
                         ? std::numeric_limits<double>::quiet_NaN()
                         : static_cast<double>(i);
    t.AppendUnchecked(Row({Value::Int64(i), Value::Float64(f)}));
  }
  ASSERT_OK(catalog_.RegisterTable("nt", std::move(t), "nk"));
  sim_.RegisterTable(*catalog_.GetTable("nt"));
  struct Case {
    const char* op;
    int64_t rows;  // the NaN row of every granule passes =, <= and >=
  };
  const Case cases[] = {{"=", 1 + kGranules},
                        {"<=", 4 + kGranules},
                        {">=", kRows - 3},
                        {"<", 3},
                        {">", kRows - 4 - kGranules}};
  for (const Case& c : cases) {
    const std::string sql =
        std::string("select n.nk from nt n where n.nf ") + c.op + " 3";
    ASSERT_OK_AND_ASSIGN(QueryBlockPtr block, ParseAndBind(sql, catalog_));
    ASSERT_OK_AND_ASSIGN(Run oracle, Scan(*block, 1, false, false, false));
    EXPECT_EQ(oracle.rows.num_rows(), c.rows) << sql;
    for (const int threads : {1, 2, 8}) {
      for (const bool vectorized : {false, true}) {
        for (const bool two_valued : {false, true}) {
          for (const bool cost_based : {false, true}) {
            const std::string ctx =
                sql + " threads=" + std::to_string(threads) +
                " vectorized=" + std::to_string(vectorized) +
                " 2vl=" + std::to_string(two_valued) +
                " cost=" + std::to_string(cost_based);
            ASSERT_OK_AND_ASSIGN(
                Run run, Scan(*block, threads, vectorized, two_valued,
                              cost_based));
            // Rows carry nf, and NaN != NaN under Value ==: compare keys.
            ASSERT_EQ(run.rows.num_rows(), oracle.rows.num_rows()) << ctx;
            for (int64_t i = 0; i < run.rows.num_rows(); ++i) {
              ASSERT_EQ(run.rows.rows()[static_cast<size_t>(i)][0],
                        oracle.rows.rows()[static_cast<size_t>(i)][0])
                  << ctx << " row " << i;
            }
          }
        }
      }
    }
  }
}

// ---------- drop + re-register racing readers ----------

// Generation `gen` of table "t": a row count that moves the last granule
// boundary, and the generation stamped into every row.
int64_t GenRows(int64_t gen) { return 1000 + (gen % 5) * 700; }

Table GenTable(int64_t gen) {
  Table t{Schema({Field("k", TypeId::kInt64, false),
                  Field("g", TypeId::kInt64, false),
                  Field("v", TypeId::kInt64, true)})};
  for (int64_t i = 0; i < GenRows(gen); ++i) {
    t.AppendUnchecked(Row({Value::Int64(i), Value::Int64(gen),
                           i % 9 == 0 ? Value::Null() : Value::Int64(i)}));
  }
  return t;
}

TEST(ColumnarMirrorRaceTest, ReRegisterNeverServesStaleMirror) {
  constexpr int64_t kGenerations = 40;
  constexpr int kReaders = 3;
  Catalog catalog;
  ASSERT_OK(catalog.RegisterTable("t", GenTable(0), "k"));
  std::atomic<int64_t> published{0};  // last generation fully registered
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::atomic<int64_t> lookups{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const int64_t floor = published.load(std::memory_order_acquire);
        Result<std::shared_ptr<const ColumnarMirror>> got =
            catalog.GetMirror("t");
        if (!got.ok()) continue;  // between drop and re-register
        const ColumnarMirror& m = **got;
        if (m.num_granules() == 0) {
          failed.store(true);
          return;
        }
        const int64_t gen = m.granule(0).column(1).GetValue(0).int64();
        // Never older than what was registered before the lookup, and
        // internally one generation: its row count and every stamp.
        bool ok = gen >= floor && m.num_rows() == GenRows(gen);
        for (int64_t g = 0; ok && g < m.num_granules(); ++g) {
          const std::vector<int64_t>& stamps = m.granule(g).column(1).ints();
          for (const int64_t s : stamps) ok = ok && s == gen;
        }
        if (!ok) {
          failed.store(true);
          return;
        }
        lookups.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int64_t gen = 1; gen <= kGenerations; ++gen) {
    ASSERT_OK(catalog.DropTable("t"));
    ASSERT_OK(catalog.RegisterTable("t", GenTable(gen), "k"));
    published.store(gen, std::memory_order_release);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());
  EXPECT_GT(lookups.load(), 0);
}

TEST(ColumnarMirrorRaceTest, QueriesRacingReRegisterSeeOneGeneration) {
  constexpr int kClients = 3;
  constexpr int kQueriesPerClient = 30;
  Catalog catalog;
  ASSERT_OK(catalog.RegisterTable("t", GenTable(0), "k"));
  ConnectionManager manager(&catalog);
  std::atomic<bool> failed{false};
  std::atomic<int> clients_done{0};
  std::atomic<int64_t> reregistered{0};
  std::string first_error;
  std::mutex error_mu;
  const auto fail = [&](const std::string& why) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.empty()) first_error = why;
    failed.store(true);
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::unique_ptr<Session> session = manager.Connect();
      session->options().num_threads = c == 0 ? 1 : 2 * c;
      session->options().vectorized = c != 1;
      // At least kQueriesPerClient queries, and on until the DDL loop has
      // re-registered twice, so every client races a replaced table.
      for (int q = 0;
           (q < kQueriesPerClient || reregistered.load() < 2) &&
           !failed.load();
           ++q) {
        Result<Table> got =
            session->Query("select t.g, t.k from t where t.v >= 100");
        if (!got.ok()) {
          fail(got.status().ToString());
          break;
        }
        // Rows 100.. minus the NULL v's (multiples of 9), all stamped with
        // one generation whose row count they match.
        const Table& rows = *got;
        if (rows.num_rows() == 0) {
          fail("empty result");
          break;
        }
        const int64_t gen = rows.rows()[0][0].int64();
        int64_t want = 0;
        for (int64_t i = 100; i < GenRows(gen); ++i) want += i % 9 != 0;
        if (rows.num_rows() != want) {
          fail("generation " + std::to_string(gen) + ": " +
               std::to_string(rows.num_rows()) + " rows, want " +
               std::to_string(want));
          break;
        }
        for (const Row& row : rows.rows()) {
          if (row[0].int64() != gen) fail("mixed generations in one result");
        }
      }
      clients_done.fetch_add(1);
    });
  }
  // Re-register until every client finished, so the DDL overlaps the
  // whole query stream.
  int64_t gen = 0;
  while (clients_done.load() < kClients && !failed.load()) {
    ++gen;
    // Drop + register under one exclusive schema-lock hold: queries see
    // the old generation or the new one, never a missing table.
    const Status st = manager.Ddl([gen](Catalog* c) {
      NESTRA_RETURN_NOT_OK(c->DropTable("t"));
      return c->RegisterTable("t", GenTable(gen), "k");
    });
    if (!st.ok()) fail(st.ToString());
    reregistered.store(gen);
    std::this_thread::yield();
  }
  for (std::thread& t : clients) t.join();
  EXPECT_FALSE(failed.load()) << first_error;
  EXPECT_GT(gen, 1);
}

}  // namespace
}  // namespace nestra
