#ifndef NESTRA_SERVER_SESSION_H_
#define NESTRA_SERVER_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/memory_tracker.h"
#include "nra/executor.h"
#include "nra/options.h"
#include "plan/query_block.h"

namespace nestra {

class ConnectionManager;

/// \brief One client connection: per-session options over the shared
/// Catalog, plus the prepared-statement registry.
///
/// Obtained from ConnectionManager::Connect(). A session is single-threaded
/// (one statement at a time); concurrency comes from many sessions, each
/// on its own client thread. Every statement executes under the manager's
/// admission gate and shared schema lock.
///
/// Prepared statements: `Prepare` pays parse + bind + plan-verify once and
/// records the catalog versions of every referenced table. At PREPARE the
/// parameters are unbound, so the verifier judges the plan for any
/// argument. `ExecutePrepared` only stores the (date-coerced) argument
/// values into the plan's shared parameter slots and runs; from then on a
/// bound `$n` is a constant, and the statement compiles its scan kernels,
/// prunes zone-map granules, estimates and derives properties exactly as
/// the ad hoc statement with the same literals would. If any referenced
/// table changed since PREPARE (re-register, drop, NOT NULL edit — anything
/// that could invalidate the plan or its captured table pointers), EXECUTE
/// fails loudly with InvalidArgument ("stale") instead of reading freed
/// storage; re-Prepare to re-plan.
///
/// Query() also accepts the statement forms directly:
///   PREPARE <name> AS <select-statement>
///   EXECUTE <name> [(arg, ...)]       -- literals: int, float, 'string', NULL
///   DEALLOCATE <name>
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  int64_t id() const { return id_; }
  /// "s<id>" — stamped into metrics labels, slow-query log lines, and trace
  /// span names.
  const std::string& label() const { return label_; }

  /// Per-session engine options (engine choice, threads, slow-query
  /// threshold, ...). Mutating session_label is not supported; it is
  /// re-stamped before every statement.
  NraOptions& options() { return options_; }
  const NraOptions& options() const { return options_; }

  /// Executes one statement: SELECT (incl. compound set operations), or the
  /// PREPARE / EXECUTE / DEALLOCATE forms above (which return an empty
  /// table for PREPARE / DEALLOCATE).
  Result<Table> Query(const std::string& sql, NraStats* stats = nullptr);

  /// Parse + bind + verify `sql` (a SELECT, possibly with $n parameters)
  /// once, storing it under `name`. Re-preparing an existing name replaces
  /// it.
  Status Prepare(const std::string& name, const std::string& sql);

  /// Binds `args` to the statement's $n slots (by position: args[0] is $1)
  /// and executes. String arguments for parameters compared against DATE
  /// columns are coerced to dates here (the bind-time literal coercion
  /// cannot see EXECUTE-time values). `profile`, when non-null and the
  /// statement was prepared with options().profile set, receives the
  /// per-stage profile as NraExecutor::Execute fills it.
  Result<Table> ExecutePrepared(const std::string& name,
                                const std::vector<Value>& args,
                                NraStats* stats = nullptr,
                                QueryProfile* profile = nullptr);

  Status Deallocate(const std::string& name);
  std::vector<std::string> PreparedNames() const;

  /// Per-session counters (monotonic over the session's lifetime).
  struct Stats {
    int64_t queries = 0;   // statements executed OK (incl. prepared)
    int64_t errors = 0;
    int64_t prepares = 0;
    int64_t prepared_executions = 0;
  };
  const Stats& stats() const { return stats_; }

  /// The session's node in the process memory hierarchy: live/peak/
  /// cumulative accounted bytes and query count across every statement this
  /// session ran. Registered for the session's lifetime, so `\memory` in
  /// the shell (DumpMemoryHierarchy) lists it even when idle.
  const SessionMemoryTracker& memory() const { return mem_; }

 private:
  friend class ConnectionManager;

  Session(ConnectionManager* manager, int64_t id);

  struct Prepared {
    std::string sql;
    QueryBlockPtr root;
    std::shared_ptr<std::vector<Value>> slots;
    int num_params = 0;
    std::set<int> date_params;  // 0-based slots needing string->date coercion
    // (table, Catalog::TableVersion at prepare time) for every table the
    // block tree references; any mismatch at EXECUTE means stale.
    std::vector<std::pair<std::string, uint64_t>> table_versions;
    NraOptions options;  // session options snapshot at prepare time
  };

  Result<Table> RunPrepared(Prepared& ps, const std::vector<Value>& args,
                            NraStats* stats, QueryProfile* profile);
  // Feeds the per-session memory metrics from one finished statement.
  void RecordQueryMemory(const NraStats& stats);
  // Query() helpers for the PREPARE/EXECUTE/DEALLOCATE statement forms.
  Result<Table> QueryPrepareForm(const std::string& sql);
  Result<Table> QueryExecuteForm(const std::string& sql, NraStats* stats);
  Result<Table> QueryDeallocateForm(const std::string& sql);

  ConnectionManager* manager_;
  const int64_t id_;
  const std::string label_;
  SessionMemoryTracker mem_;  // after label_: constructed from it
  NraOptions options_;
  std::map<std::string, Prepared> prepared_;
  Stats stats_;
};

}  // namespace nestra

#endif  // NESTRA_SERVER_SESSION_H_
