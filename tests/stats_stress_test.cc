// Concurrent stats invalidation (TSan target): client
// sessions keep executing cost-planned queries — ad hoc and prepared —
// while a DDL thread re-registers the build-side table with alternating
// dense / sparse key layouts. Each re-registration replaces the TableStats
// and flips the perfect (dense-array) hash-join decision, so this races
// stats collection, stats reads in the planner, and the prepared-statement
// version check against each other. Ad hoc queries must always succeed
// (they re-plan from whatever stats version they admit under); prepared
// executions must either succeed or fail with the stale-plan error — never
// crash, never read freed stats.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "nra/executor.h"
#include "server/connection_manager.h"
#include "server/session.h"
#include "storage/catalog.h"
#include "test_util.h"

namespace nestra {
namespace {

using testing_util::MakeTable;

constexpr int64_t kProbeRows = 3000;
constexpr int64_t kBuildRows = 2048;

Table MakeProbe() {
  Table t = MakeTable({"pk", "p1"}, {});
  for (int64_t i = 1; i <= kProbeRows; ++i) {
    Row r;
    r.Append(Value::Int64(i));
    r.Append(Value::Int64(i));
    t.AppendUnchecked(std::move(r));
  }
  return t;
}

// Dense layout: key 1..kBuildRows (perfect-join eligible). Sparse layout:
// key i*1000 (span exceeds kPerfectMaxSparsity × rows — ineligible). Both
// carry the same b1 payload, so ad hoc results are layout-independent.
Table MakeBuild(bool dense) {
  Table t = MakeTable({"bk", "b1"}, {});
  for (int64_t i = 1; i <= kBuildRows; ++i) {
    Row r;
    r.Append(Value::Int64(dense ? i : i * 1000));
    r.Append(Value::Int64(i));
    t.AppendUnchecked(std::move(r));
  }
  return t;
}

// Correlates on bk — the column whose layout (dense vs. sparse) the DDL
// thread keeps flipping — so each re-registration really flips the perfect
// dense-array keying decision for freshly planned queries.
constexpr const char* kQuerySql =
    "select p.pk from probe p where p.p1 in "
    "(select b.b1 from build b where b.bk = p.pk)";

TEST(StatsStressTest, ConcurrentQueriesSurviveStatsInvalidation) {
  Catalog catalog;
  ASSERT_OK(catalog.RegisterTable("probe", MakeProbe(), "pk"));
  ASSERT_OK(catalog.RegisterTable("build", MakeBuild(/*dense=*/true), "bk"));

  // Per-layout reference row counts, computed serially before the race.
  // The schema lock gives every racing query one consistent layout, so its
  // result must equal one of these two.
  int64_t dense_rows = 0;
  int64_t sparse_rows = 0;
  {
    NraExecutor exec(catalog, NraOptions::Optimized());
    ASSERT_OK_AND_ASSIGN(Table t, exec.ExecuteSql(kQuerySql));
    dense_rows = t.num_rows();
  }
  ASSERT_OK(catalog.DropTable("build"));
  ASSERT_OK(catalog.RegisterTable("build", MakeBuild(/*dense=*/false), "bk"));
  {
    NraExecutor exec(catalog, NraOptions::Optimized());
    ASSERT_OK_AND_ASSIGN(Table t, exec.ExecuteSql(kQuerySql));
    sparse_rows = t.num_rows();
  }
  ASSERT_NE(dense_rows, sparse_rows);  // the flip is observable in rows too

  ConnectionManager manager(&catalog);

  constexpr int kClientThreads = 3;
  constexpr int kQueriesPerClient = 30;
  constexpr int kReRegisters = 20;

  std::atomic<int> stale_failures{0};
  std::atomic<int> prepared_ok{0};
  std::atomic<bool> failed{false};

  const auto plausible = [dense_rows, sparse_rows](int64_t rows) {
    return rows == dense_rows || rows == sparse_rows;
  };

  std::vector<std::thread> clients;
  clients.reserve(kClientThreads);
  for (int c = 0; c < kClientThreads; ++c) {
    clients.emplace_back([&manager, &stale_failures, &prepared_ok, &failed,
                          &plausible, c] {
      std::unique_ptr<Session> session = manager.Connect();
      session->options().num_threads = 1 + (c % 2);
      session->options().vectorized = (c % 2) == 0;
      const std::string name = "q" + std::to_string(c);
      if (!session->Prepare(name, kQuerySql).ok()) {
        failed.store(true);
        return;
      }
      for (int i = 0; i < kQueriesPerClient; ++i) {
        // Ad hoc: re-plans under the admission-time stats, must succeed.
        const Result<Table> adhoc = session->Query(kQuerySql);
        if (!adhoc.ok() || !plausible(adhoc.ValueOrDie().num_rows())) {
          failed.store(true);
          return;
        }
        // Prepared: succeeds against the prepare-time table version, or
        // fails stale once the DDL thread swapped it — both are correct;
        // anything else (wrong rows, other errors) is a bug. Re-prepare
        // after a stale failure and keep going.
        const Result<Table> prep = session->ExecutePrepared(name, {});
        if (prep.ok()) {
          prepared_ok.fetch_add(1);
          if (!plausible(prep.ValueOrDie().num_rows())) {
            failed.store(true);
            return;
          }
        } else {
          stale_failures.fetch_add(1);
          if (prep.status().ToString().find("stale") == std::string::npos) {
            failed.store(true);
            return;
          }
          if (!session->Prepare(name, kQuerySql).ok()) {
            failed.store(true);
            return;
          }
        }
      }
    });
  }

  std::thread ddl([&manager, &failed] {
    for (int i = 0; i < kReRegisters; ++i) {
      const bool dense = (i % 2) == 0;
      // Drop + register under ONE exclusive schema-lock hold, so no query
      // ever observes the table missing — only old layout or new layout.
      const Status st = manager.Ddl([dense](Catalog* c) {
        NESTRA_RETURN_NOT_OK(c->DropTable("build"));
        return c->RegisterTable("build", MakeBuild(dense), "bk");
      });
      if (!st.ok()) {
        failed.store(true);
        return;
      }
      std::this_thread::yield();
    }
  });

  for (std::thread& t : clients) t.join();
  ddl.join();
  ASSERT_FALSE(failed.load());
  // Every prepared execution resolved one way or the other.
  EXPECT_EQ(prepared_ok.load() + stale_failures.load(),
            kClientThreads * kQueriesPerClient);

  // Quiesced: the DDL thread's last layout is sparse (kReRegisters even,
  // final i = kReRegisters - 1 odd), so a fresh cost-based query plans
  // against the sparse stats and returns its reference rows.
  std::unique_ptr<Session> session = manager.Connect();
  ASSERT_OK_AND_ASSIGN(Table final_result, session->Query(kQuerySql));
  EXPECT_EQ(final_result.num_rows(), sparse_rows);
}

}  // namespace
}  // namespace nestra
