#ifndef NESTRA_E2EBENCH_WORKLOADS_H_
#define NESTRA_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"
#include "storage/catalog.h"
#include "storage/io_sim.h"
#include "tpch/tpch_gen.h"

namespace nestra {
namespace e2ebench {

/// A statement shape PREPAREd in every session during set-up.
struct PreparedShape {
  std::string name;
  std::string sql;  // SELECT with $n parameters
};

/// One statement of a client's script. Every statement has a literal SQL
/// text (what the oracle and the traced replay run); a statement with a
/// `prepared` name is executed through that PREPAREd shape with `args`
/// instead, which must mean the same query.
struct Statement {
  std::string label;
  std::string sql;
  std::string prepared;  // empty: ad hoc Session::Query
  std::vector<Value> args;
  uint64_t expected_hash = 0;  // CanonicalHash of the oracle's answer
};

/// Everything that defines one workload: data, engine and server settings,
/// and (after MakeScripts) the per-client statement scripts.
struct WorkloadSpec {
  std::string name;
  std::string why;
  TpchConfig tpch;
  IoSimConfig io;
  int engine_threads = 1;
  int clients = 1;
  int max_in_flight = 0;       // ServerOptions::max_in_flight
  bool reset_io_per_statement = false;  // cold buffer pool, like the paper
  int write_every = 0;         // client 0 reloads write_table every N stmts
  std::string write_table = "part";  // table the write path reloads
  int setup_repeats = 1;       // set-ups per run; setup_s is their median
  int reference_every = 1;     // ReferenceSlices after every Nth statement
  std::vector<PreparedShape> shapes;
  std::vector<std::vector<Statement>> scripts;  // one per client
};

/// Names of the workloads, in the order `--workload all` runs them.
std::vector<std::string> WorkloadNames();

/// The workload's configuration for `seed` (data seed included); fails for
/// an unknown name. Scripts are filled by MakeScripts once data exists,
/// because selectivity constants are read off the generated tables.
Result<WorkloadSpec> MakeWorkload(const std::string& name, uint64_t seed);

/// Fills spec->scripts from the generated catalog and the seed.
Status MakeScripts(const Catalog& catalog, uint64_t seed, WorkloadSpec* spec);

}  // namespace e2ebench
}  // namespace nestra

#endif  // NESTRA_E2EBENCH_WORKLOADS_H_
