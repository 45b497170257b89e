#include "runner.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "baseline/nested_iteration.h"
#include "common/thread_pool.h"
#include "nra/executor.h"
#include "nra/profile.h"
#include "plan/binder.h"
#include "server/connection_manager.h"
#include "server/session.h"
#include "sql/parser.h"
#include "storage/io_sim.h"
#include "verify/verifier.h"
#include "workloads.h"

namespace nestra {
namespace e2ebench {

namespace {

// The served database: catalog, I/O simulator, connection manager and one
// session per client. Members are destroyed in reverse order, sessions
// first; the simulator is uninstalled before it goes.
class Server {
 public:
  Server() = default;
  ~Server() {
    if (IoSim::Get() == sim.get()) IoSim::Install(nullptr);
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<IoSim> sim;
  std::unique_ptr<ConnectionManager> manager;
  std::vector<std::unique_ptr<Session>> sessions;
};

NraOptions EngineOptions(const WorkloadSpec& spec) {
  NraOptions options = NraOptions::Optimized();
  options.num_threads = spec.engine_threads;
  return options;
}

struct SetupTimes {
  double total_ms = 0;
  double populate_ms = 0;
};

// Data generation + catalog registration (stats, zone maps, NULL scan) +
// IoSim registration + sessions and their PREPAREs.
Result<std::unique_ptr<Server>> SetUp(const WorkloadSpec& spec,
                                      SetupTimes* times) {
  const Clock::time_point start = Clock::now();
  auto server = std::make_unique<Server>();
  server->catalog = std::make_unique<Catalog>();
  ServerOptions options;
  options.max_in_flight = spec.max_in_flight;
  options.session_defaults = EngineOptions(spec);
  server->manager =
      std::make_unique<ConnectionManager>(server->catalog.get(), options);
  const Clock::time_point populate = Clock::now();
  NESTRA_RETURN_NOT_OK(server->manager->Ddl(
      [&](Catalog* catalog) { return PopulateTpch(catalog, spec.tpch); }));
  times->populate_ms = MillisSince(populate);
  server->sim = std::make_unique<IoSim>(spec.io);
  for (const std::string& name : server->catalog->TableNames()) {
    NESTRA_ASSIGN_OR_RETURN(const Table* table,
                            server->catalog->GetTable(name));
    server->sim->RegisterTable(table);
  }
  IoSim::Install(server->sim.get());
  for (int c = 0; c < spec.clients; ++c) {
    server->sessions.push_back(server->manager->Connect());
    for (const PreparedShape& shape : spec.shapes) {
      NESTRA_RETURN_NOT_OK(
          server->sessions.back()->Prepare(shape.name, shape.sql));
    }
  }
  times->total_ms = MillisSince(start);
  return server;
}

// Expected answers from the nested-iteration baseline, on its own copy of
// the data (same generator seed) so its indexes never touch the served
// catalog.
Status ComputeExpected(WorkloadSpec* spec) {
  Catalog catalog;
  NESTRA_RETURN_NOT_OK(PopulateTpch(&catalog, spec->tpch));
  NestedIterationExecutor oracle(catalog, {.use_indexes = true});
  std::map<std::string, uint64_t> memo;
  for (std::vector<Statement>& script : spec->scripts) {
    for (Statement& st : script) {
      auto it = memo.find(st.sql);
      if (it == memo.end()) {
        Result<Table> expected = oracle.ExecuteSql(st.sql);
        if (!expected.ok()) {
          return Status::Internal("oracle failed on " + st.label + ": " +
                                  expected.status().ToString());
        }
        it = memo.emplace(st.sql, CanonicalHash(*expected)).first;
      }
      st.expected_hash = it->second;
    }
  }
  return Status::OK();
}

// One statement of the measured closed loop.
struct Sample {
  double done_ms = 0;  // completion, since the loop started
  double latency_ms = 0;
  // The answer check and the reference slices after the statement; kept
  // out of the figures.
  double check_wall_ms = 0;
  double check_cpu_ms = 0;
  double ref_ms = 0;  // wall time of one ReferenceSlice after it; 0 if none
  bool ok = false;
};

// A measurement-window boundary, recorded by client 0 between passes.
struct Mark {
  double at_ms = 0;   // since the loop started
  double cpu_ms = 0;  // process CPU time
};

// What one client (or one pass) observed.
struct Tally {
  std::vector<Sample> samples;
  std::vector<Mark> marks;
  std::vector<double> write_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t prepared = 0;    // statements sent as prepared executions
  int64_t reprepares = 0;  // stale prepared plans re-planned
  IoSim::RangeCounts io;
  std::string first_failure;

  void Fail(const std::string& what) {
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }

  void Absorb(const Tally& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    marks.insert(marks.end(), o.marks.begin(), o.marks.end());
    write_ms.insert(write_ms.end(), o.write_ms.begin(), o.write_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    prepared += o.prepared;
    reprepares += o.reprepares;
    io.hits += o.io.hits;
    io.seq_misses += o.io.seq_misses;
    io.random_misses += o.io.random_misses;
    if (first_failure.empty()) first_failure = o.first_failure;
  }

  double check_wall_ms() const {
    double sum = 0;
    for (const Sample& s : samples) sum += s.check_wall_ms;
    return sum;
  }
};

// Compares one answer with the oracle's.
bool Check(const Statement& st, const Result<Table>& result, Tally* tally) {
  ++tally->attempted;
  if (!result.ok()) {
    tally->Fail(st.label + ": " + result.status().ToString() + " | " +
                st.sql);
    return false;
  }
  if (CanonicalHash(*result) != st.expected_hash) {
    tally->Fail(st.label + ": answer differs from the nested-iteration "
                "oracle | " + st.sql);
    return false;
  }
  return true;
}

// Runs one statement through its session. A prepared execution that a
// reload made stale is re-prepared and retried, as a client would.
Result<Table> Execute(Session& session, const WorkloadSpec& spec,
                      const Statement& st, NraStats* stats, Tally* tally) {
  if (st.prepared.empty()) return session.Query(st.sql, stats);
  ++tally->prepared;
  for (int attempt = 0;; ++attempt) {
    Result<Table> result = session.ExecutePrepared(st.prepared, st.args, stats);
    if (result.ok() || attempt == 3 ||
        result.status().message().find("stale") == std::string::npos) {
      return result;
    }
    for (const PreparedShape& shape : spec.shapes) {
      if (shape.name == st.prepared) {
        NESTRA_RETURN_NOT_OK(session.Prepare(shape.name, shape.sql));
      }
    }
    ++tally->reprepares;
  }
}

// The engine's write path: atomically replaces `name` with a fresh copy of
// its rows (exclusive schema lock, statistics recollected, prepared plans
// on it made stale). Returns the latency of the locked replacement.
Result<double> Reload(Server& server, const std::string& name) {
  NESTRA_ASSIGN_OR_RETURN(const Table* current, server.catalog->GetTable(name));
  NESTRA_ASSIGN_OR_RETURN(const TableMetadata* meta,
                          server.catalog->GetMetadata(name));
  Table copy = *current;
  const std::string primary_key = meta->primary_key;
  const std::set<std::string> not_null = meta->not_null_columns;
  const Clock::time_point start = Clock::now();
  NESTRA_RETURN_NOT_OK(server.manager->Ddl([&](Catalog* catalog) -> Status {
    NESTRA_RETURN_NOT_OK(catalog->DropTable(name));
    NESTRA_RETURN_NOT_OK(
        catalog->RegisterTable(name, std::move(copy), primary_key, not_null));
    NESTRA_ASSIGN_OR_RETURN(const Table* fresh, catalog->GetTable(name));
    server.sim->RegisterTable(fresh);
    return Status::OK();
  }));
  return MillisSince(start);
}

// Single-client workloads close a measurement window after every pass over
// the script, so each window runs the same statements; concurrent ones
// close it after the first pass of client 0 that ends this long after the
// window opened.
constexpr double kConcurrentWindowMs = 500;

// Pins client c's thread to CPU c + 1 (modulo the CPU count), so the OS
// does not migrate a session between statements and restart it on cold
// caches; on identical runs this narrowed the spread of oltp_sessions.
// Only for serial engines: the scheduler places woken pool helpers next to
// their waker, so a pinned session would run its own helpers on its CPU.
// Best effort: a CPU outside the affinity mask leaves the thread unpinned.
void PinClientThread(int client) {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET((static_cast<unsigned>(client) + 1) % cpus, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// One client's closed loop: whole passes over its script until the
// deadline (at least one pass). Client 0 also performs the writes and
// marks the measurement windows.
Tally RunClient(Server& server, const WorkloadSpec& spec, int client,
                Clock::time_point start, Clock::time_point deadline) {
  if (spec.engine_threads == 1) PinClientThread(client);
  Tally tally;
  Session& session = *server.sessions[static_cast<size_t>(client)];
  IoSim* sim = server.sim.get();
  const bool leader = client == 0;
  const bool writer = leader && spec.write_every > 0;
  const double window_ms = spec.clients > 1 ? kConcurrentWindowMs : 0;
  if (leader) tally.marks.push_back({0, ProcessCpuMillis()});
  int64_t sent = 0;
  int64_t statements = 0;
  do {
    for (const Statement& st : spec.scripts[static_cast<size_t>(client)]) {
      if (writer && ++sent % spec.write_every == 0) {
        Result<double> write = Reload(server, spec.write_table);
        if (write.ok()) {
          tally.write_ms.push_back(*write);
        } else {
          tally.Fail("reload of " + spec.write_table + ": " +
                     write.status().ToString());
        }
      }
      if (spec.reset_io_per_statement) sim->Reset();
      NraStats stats;
      Sample sample;
      const Clock::time_point begin = Clock::now();
      Result<Table> result = Execute(session, spec, st, &stats, &tally);
      const Clock::time_point done = Clock::now();
      sample.latency_ms =
          std::chrono::duration<double, std::milli>(done - begin).count();
      sample.done_ms =
          std::chrono::duration<double, std::milli>(done - start).count();
      if (spec.reset_io_per_statement) {
        tally.io.hits += sim->hits();
        tally.io.seq_misses += sim->seq_misses();
        tally.io.random_misses += sim->random_misses();
      }
      const double check_cpu = ThreadCpuMillis();
      sample.ok = Check(st, result, &tally);
      if (++statements % spec.reference_every == 0) {
        const Clock::time_point ref = Clock::now();
        ReferenceSlice();
        ReferenceSlice();
        sample.ref_ms = MillisSince(ref) / 2;
      }
      sample.check_cpu_ms = ThreadCpuMillis() - check_cpu;
      sample.check_wall_ms = MillisSince(done);
      tally.samples.push_back(sample);
    }
    const double now_ms = MillisSince(start);
    if (leader && now_ms - tally.marks.back().at_ms >= window_ms) {
      tally.marks.push_back({now_ms, ProcessCpuMillis()});
    }
  } while (Clock::now() < deadline);
  // A run shorter than one window still reports one.
  if (leader && tally.marks.size() == 1) {
    tally.marks.push_back({MillisSince(start), ProcessCpuMillis()});
  }
  return tally;
}

struct LoopResult {
  Tally tally;
  double wall_ms = 0;
  PoolStatsSnapshot pool;
  int clients = 1;

  // Wall time of the loop minus the answer checks (spread over clients).
  double busy_ms() const {
    return wall_ms - tally.check_wall_ms() / static_cast<double>(clients);
  }
};

LoopResult RunLoop(Server& server, const WorkloadSpec& spec, double seconds) {
  LoopResult loop;
  loop.clients = spec.clients;
  IoSim* sim = server.sim.get();
  if (!spec.reset_io_per_statement) sim->Reset();
  const PoolStatsSnapshot pool_start = GlobalPoolStats();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<Tally> tallies(static_cast<size_t>(spec.clients));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < spec.clients; ++c) {
      threads.emplace_back([&, c] {
        tallies[static_cast<size_t>(c)] =
            RunClient(server, spec, c, start, deadline);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  loop.wall_ms = MillisSince(start);
  loop.pool = GlobalPoolStats() - pool_start;
  for (const Tally& t : tallies) loop.tally.Absorb(t);
  if (!spec.reset_io_per_statement) {
    loop.tally.io = {sim->hits(), sim->seq_misses(), sim->random_misses()};
  }
  return loop;
}

// End-to-end figures of the closed loop: each is computed per measurement
// window and the median over windows is reported, so a transient stall of
// the host moves one window, not the result.
//
// With `at_nominal_speed` every window's timings are also scaled by the
// host's speed in that window: kReferenceSliceNominalMs over the mean time
// of the reference slices run between its statements. On a shared VM the
// speed swings by tens of percent over seconds to minutes, and the slices
// slow down with the engine (per-window correlation 0.8-0.97 on the 4-vCPU
// VM the benchmark was tuned on), so scaled figures drift far less.
struct LoopFigures {
  double p50_ms = 0;
  double p95_ms = 0;
  double qps = 0;
  double cpu_ms_per_stmt = 0;
  double host_speed = 0;  // median over windows of nominal ÷ measured slice
  int64_t samples = 0;
  int windows = 0;
};

LoopFigures Summarize(const LoopResult& loop, bool at_nominal_speed) {
  std::vector<double> p50, p95, qps, cpu, speed;
  LoopFigures out;
  const std::vector<Mark>& marks = loop.tally.marks;
  for (size_t w = 0; w + 1 < marks.size(); ++w) {
    std::vector<double> latency;
    double check_wall = 0;
    double check_cpu = 0;
    double ref_ms = 0;
    int64_t refs = 0;
    int64_t correct = 0;
    for (const Sample& s : loop.tally.samples) {
      if (s.done_ms < marks[w].at_ms || s.done_ms >= marks[w + 1].at_ms) {
        continue;
      }
      latency.push_back(s.latency_ms);
      check_wall += s.check_wall_ms;
      check_cpu += s.check_cpu_ms;
      ref_ms += s.ref_ms;
      refs += s.ref_ms > 0 ? 1 : 0;
      correct += s.ok ? 1 : 0;
    }
    if (latency.empty() || refs == 0) continue;
    const double n = static_cast<double>(latency.size());
    const double busy_ms = marks[w + 1].at_ms - marks[w].at_ms -
                           check_wall / static_cast<double>(loop.clients);
    const double host_speed =
        kReferenceSliceNominalMs / (ref_ms / static_cast<double>(refs));
    const double scale = at_nominal_speed ? host_speed : 1;
    p50.push_back(Median(latency) * scale);
    p95.push_back(Quantile(latency, 0.95) * scale);
    qps.push_back(static_cast<double>(correct) / (busy_ms / 1e3) / scale);
    cpu.push_back((marks[w + 1].cpu_ms - marks[w].cpu_ms - check_cpu) / n *
                  scale);
    speed.push_back(host_speed);
    out.samples += static_cast<int64_t>(latency.size());
    ++out.windows;
  }
  out.p50_ms = Median(p50);
  out.p95_ms = Median(p95);
  out.qps = Median(qps);
  out.cpu_ms_per_stmt = Median(cpu);
  out.host_speed = Median(speed);
  return out;
}

// One serial pass over every script statement against a cold buffer pool:
// the deterministic per-statement simulated I/O time and accounted peak.
void AccountingPass(Server& server, const WorkloadSpec& spec, double* t2005_ms,
                    double* peak_bytes, Tally* tally) {
  std::vector<double> sim_ms;
  std::vector<double> peaks;
  for (const std::vector<Statement>& script : spec.scripts) {
    for (const Statement& st : script) {
      server.sim->Reset();
      NraStats stats;
      Result<Table> result =
          Execute(*server.sessions[0], spec, st, &stats, tally);
      sim_ms.push_back(server.sim->SimMillis());
      peaks.push_back(static_cast<double>(stats.peak_mem_bytes));
      Check(st, result, tally);
    }
  }
  *t2005_ms = Mean(sim_ms);
  *peak_bytes = Mean(peaks);
}

// ---- traced run: timed calls into each layer's public functions ----

struct EntryTrace {
  std::vector<double> parse, bind, verify, execute, session, profiled,
      stages, unnest, nest, link, post;
  // Deterministic counts, taken from the first profiled execution.
  bool counted = false;
  int64_t build_rows = 0, probe_rows = 0, sort_rows = 0;
  int64_t batches = 0, adapter_batches = 0;
  int64_t intermediate_rows = 0, output_rows = 0;
};

void CountOperators(const ProfiledOperator& op, EntryTrace* e) {
  e->build_rows += op.stats.build_rows;
  e->probe_rows += op.stats.probe_rows;
  e->sort_rows += op.stats.sort_rows;
  e->batches += op.stats.batches_out;
  e->adapter_batches += op.stats.adapter_batches;
  for (const ProfiledOperator& child : op.children) CountOperators(child, e);
}

template <typename Fn>
auto Timed(std::vector<double>* samples, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  auto out = fn();
  samples->push_back(MillisSince(start));
  return out;
}

// parse -> bind -> verify -> execute as separate calls, the same statement
// through Session::Query, and a profiled execution for the stage split.
Status TraceStatement(Server& server, const WorkloadSpec& spec,
                      const Statement& st, EntryTrace* e, Tally* tally) {
  const Catalog& catalog = *server.catalog;
  auto cold = [&] {
    if (spec.reset_io_per_statement) server.sim->Reset();
  };
  Result<AstStatementPtr> ast =
      Timed(&e->parse, [&] { return ParseStatement(st.sql); });
  NESTRA_RETURN_NOT_OK(ast.status());
  Result<QueryBlockPtr> root = Timed(
      &e->bind, [&] { return BindQuery(*(*ast)->selects[0], catalog); });
  NESTRA_RETURN_NOT_OK(root.status());
  NESTRA_RETURN_NOT_OK(Timed(&e->verify, [&] {
    return VerifyPlan(**root, catalog, EngineOptions(spec));
  }));

  NraOptions options = EngineOptions(spec);
  options.verify_plans = false;  // timed above
  NraExecutor executor(catalog, options);
  cold();
  Check(st, Timed(&e->execute, [&] { return executor.Execute(**root); }),
        tally);

  cold();
  Check(st,
        Timed(&e->session, [&] { return server.sessions[0]->Query(st.sql); }),
        tally);

  options.profile = true;
  NraExecutor profiled(catalog, options);
  QueryProfile profile;
  NraStats stats;
  cold();
  Check(st, Timed(&e->profiled, [&] {
          return profiled.Execute(**root, &stats, &profile);
        }),
        tally);
  double stage_ms = 0;
  for (const ProfiledStage& stage : profile.stages()) {
    stage_ms += stage.seconds * 1e3;
    if (!e->counted && stage.has_tree) CountOperators(stage.tree, e);
  }
  e->counted = true;
  e->stages.push_back(stage_ms);
  e->unnest.push_back(profile.PhaseSeconds(QueryPhase::kUnnestJoin) * 1e3);
  e->nest.push_back(profile.PhaseSeconds(QueryPhase::kNest) * 1e3);
  e->link.push_back(profile.PhaseSeconds(QueryPhase::kLinkingSelection) * 1e3);
  e->post.push_back(profile.PhaseSeconds(QueryPhase::kPostProcessing) * 1e3);
  e->intermediate_rows = stats.intermediate_rows;
  e->output_rows = stats.output_rows;
  return Status::OK();
}

// Mean over statements of each statement's median sample.
double MeanOfMedians(const std::vector<EntryTrace>& entries,
                     std::vector<double> EntryTrace::*field) {
  std::vector<double> medians;
  for (const EntryTrace& e : entries) medians.push_back(Median(e.*field));
  return Mean(medians);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Adds a pass's correctness tally to the run's.
void CountChecks(const Tally& t, RunResult* out) {
  out->attempted += t.attempted;
  out->failed += t.failed;
  if (out->first_failure.empty()) out->first_failure = t.first_failure;
}

// Appends the traced run's per-layer metrics.
Status RunTraced(Server& server, const WorkloadSpec& spec, double seconds,
                 const SetupTimes& setup_median, RunResult* out) {
  // 1. The closed loop again, for the server, storage and pool counters.
  AdmissionController& admission = server.manager->admission();
  const LoopResult loop = RunLoop(server, spec, seconds / 2);
  const Tally& t = loop.tally;
  const double statements = static_cast<double>(t.samples.size());

  // 2. Serial replay of every statement, layer by layer.
  std::vector<const Statement*> flat;
  for (const auto& script : spec.scripts) {
    for (const Statement& st : script) flat.push_back(&st);
  }
  std::vector<EntryTrace> entries(flat.size());
  Tally replay;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds / 2));
  do {
    for (size_t i = 0; i < flat.size(); ++i) {
      Status st = TraceStatement(server, spec, *flat[i], &entries[i], &replay);
      if (!st.ok()) replay.Fail(flat[i]->label + ": " + st.ToString());
    }
  } while (Clock::now() < deadline);

  // 3. Writes with no statement in flight.
  std::vector<double> idle_writes;
  for (int i = 0; i < 5; ++i) {
    NESTRA_ASSIGN_OR_RETURN(double ms, Reload(server, spec.write_table));
    idle_writes.push_back(ms);
  }

  const double parse = MeanOfMedians(entries, &EntryTrace::parse);
  const double bind = MeanOfMedians(entries, &EntryTrace::bind);
  const double verify = MeanOfMedians(entries, &EntryTrace::verify);
  const double execute = MeanOfMedians(entries, &EntryTrace::execute);
  const double session = MeanOfMedians(entries, &EntryTrace::session);
  const double profiled = MeanOfMedians(entries, &EntryTrace::profiled);
  const double stages = MeanOfMedians(entries, &EntryTrace::stages);
  int64_t build = 0, probe = 0, sort = 0, batches = 0, adapter = 0,
          intermediate = 0, output = 0;
  for (const EntryTrace& e : entries) {
    build += e.build_rows;
    probe += e.probe_rows;
    sort += e.sort_rows;
    batches += e.batches;
    adapter += e.adapter_batches;
    intermediate += e.intermediate_rows;
    output += e.output_rows;
  }
  const double n = static_cast<double>(entries.size());
  const int64_t io_total = t.io.hits + t.io.seq_misses + t.io.random_misses;

  out->metrics = {
      {"sql.parse_ms", parse, "ms"},
      {"plan.bind_ms", bind, "ms"},
      {"verify.verify_ms", verify, "ms"},
      {"nra.execute_ms", execute, "ms"},
      {"nra.phase.unnest_join_ms", MeanOfMedians(entries, &EntryTrace::unnest),
       "ms"},
      {"nra.phase.nest_ms", MeanOfMedians(entries, &EntryTrace::nest), "ms"},
      {"nra.phase.linking_selection_ms",
       MeanOfMedians(entries, &EntryTrace::link), "ms"},
      {"nra.phase.post_processing_ms",
       MeanOfMedians(entries, &EntryTrace::post), "ms"},
      {"nra.unattributed_ms", profiled - stages, "ms"},
      {"nra.coverage", Ratio(stages, profiled), "1"},
      {"nra.intermediate_rows_per_output",
       Ratio(static_cast<double>(intermediate), static_cast<double>(output)),
       "1"},
      {"exec.join.build_rows", static_cast<double>(build) / n, "count"},
      {"exec.join.probe_rows", static_cast<double>(probe) / n, "count"},
      {"exec.sort.rows", static_cast<double>(sort) / n, "count"},
      {"exec.adapter_batch_frac",
       Ratio(static_cast<double>(adapter), static_cast<double>(batches)), "1"},
      {"storage.io.hit_rate",
       Ratio(static_cast<double>(t.io.hits), static_cast<double>(io_total)),
       "1"},
      {"storage.io.seq_misses",
       static_cast<double>(t.io.seq_misses) / statements, "count"},
      {"storage.io.random_misses",
       static_cast<double>(t.io.random_misses) / statements, "count"},
      {"storage.populate_ms", setup_median.populate_ms, "ms"},
      {"storage.register_ms", Median(idle_writes), "ms"},
      {"common.pool.tasks",
       static_cast<double>(loop.pool.tasks_submitted) / statements, "count"},
      {"common.pool.parallel_loops",
       static_cast<double>(loop.pool.parallel_loops) / statements, "count"},
      {"common.pool.wait_frac",
       Ratio(loop.pool.wait_seconds * 1e3, loop.busy_ms()), "1"},
      {"server.overhead_ms", session - (parse + bind + verify + execute), "ms"},
      {"server.admission_peak_queue",
       static_cast<double>(admission.peak_queue_depth()), "count"},
      {"server.reprepares", static_cast<double>(t.reprepares), "count"},
      {"server.prepared_frac",
       Ratio(static_cast<double>(t.prepared), statements), "1"},
      {"server.write_p50_ms",
       t.write_ms.empty() ? Median(idle_writes) : Median(t.write_ms), "ms"},
      {"bench.trace_overhead_frac", Ratio(profiled, execute) - 1, "1"},
      {"bench.host_speed",
       Summarize(loop, /*at_nominal_speed=*/false).host_speed, "1"},
  };
  CountChecks(t, out);
  CountChecks(replay, out);
  return Status::OK();
}

template <typename... Args>
std::string Printf(const char* fmt, Args... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}


}  // namespace

Result<RunResult> RunWorkload(const RunOptions& options) {
  NESTRA_ASSIGN_OR_RETURN(WorkloadSpec spec,
                          MakeWorkload(options.workload, options.seed));
  RunResult out;
  const double host_start = HostReferenceMillis();

  // Set up several times; setup_s is the median, the last server is kept.
  // Like the loop's timings, each set-up is scaled to nominal host speed,
  // by reference slices timed just before and just after it.
  ReferenceSlice();  // builds the reference table outside any timing
  auto host_speed = [] {
    constexpr int kSlices = 4;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < kSlices; ++i) ReferenceSlice();
    return kReferenceSliceNominalMs * kSlices / MillisSince(start);
  };
  std::unique_ptr<Server> server;
  std::vector<double> setup_ms;
  std::vector<double> setup_nominal_ms;
  std::vector<double> populate_ms;
  for (int i = 0; i < spec.setup_repeats; ++i) {
    server.reset();
    SetupTimes times;
    const double speed_before = host_speed();
    NESTRA_ASSIGN_OR_RETURN(server, SetUp(spec, &times));
    const double speed = (speed_before + host_speed()) / 2;
    setup_ms.push_back(times.total_ms);
    setup_nominal_ms.push_back(times.total_ms * speed);
    populate_ms.push_back(times.populate_ms);
  }
  SetupTimes setup_median;
  setup_median.total_ms = Median(setup_ms);
  setup_median.populate_ms = Median(populate_ms);

  NESTRA_RETURN_NOT_OK(MakeScripts(*server->catalog, options.seed, &spec));
  NESTRA_RETURN_NOT_OK(ComputeExpected(&spec));

  int64_t rows = 0;
  for (const std::string& name : server->catalog->TableNames()) {
    NESTRA_ASSIGN_OR_RETURN(const Table* table,
                            server->catalog->GetTable(name));
    rows += table->num_rows();
  }
  const double pages = static_cast<double>(
      (rows + spec.io.rows_per_page - 1) / spec.io.rows_per_page);
  const double pool = std::max(static_cast<double>(spec.io.min_pool_pages),
                               pages * spec.io.pool_fraction);
  size_t statements = 0;
  for (const auto& script : spec.scripts) statements += script.size();
  out.info.push_back("workload " + spec.name + ": " + spec.why);
  out.info.push_back(Printf(
      "seed %llu; %zu script statements; %d client session(s), "
      "max_in_flight %d, engine threads %d; reload of %s every %d "
      "statements of client 0 (0 = never)",
      static_cast<unsigned long long>(options.seed), statements, spec.clients,
      spec.max_in_flight, spec.engine_threads, spec.write_table.c_str(),
      spec.write_every));
  out.info.push_back(Printf(
      "data %lld rows = %.0f pages = %.1fx the %.0f-page IoSim buffer pool",
      static_cast<long long>(rows), pages, pages / pool, pool));

  // Warm-up: one untimed pass per client (allocators, lazy state).
  CountChecks(RunLoop(*server, spec, 0).tally, &out);

  if (options.trace) {
    NESTRA_RETURN_NOT_OK(
        RunTraced(*server, spec, options.seconds, setup_median, &out));
    const double host_end = HostReferenceMillis();
    out.metrics.push_back(
        {"bench.host_ref_ms", (host_start + host_end) / 2, "ms"});
    return out;
  }

  const LoopResult loop = RunLoop(*server, spec, options.seconds);
  const Tally& t = loop.tally;
  Tally accounting;
  double t2005_ms = 0;
  double peak_bytes = 0;
  AccountingPass(*server, spec, &t2005_ms, &peak_bytes, &accounting);
  const double host_end = HostReferenceMillis();

  CountChecks(t, &out);
  CountChecks(accounting, &out);
  const LoopFigures fig = Summarize(loop, /*at_nominal_speed=*/true);
  const LoopFigures raw = Summarize(loop, /*at_nominal_speed=*/false);
  out.metrics = {
      {"latency_p50_ms", fig.p50_ms, "ms"},
      {"latency_p95_ms", fig.p95_ms, "ms"},
      {"throughput_qps", fig.qps, "1/s"},
      {"cpu_ms_per_stmt", fig.cpu_ms_per_stmt, "ms"},
      {"t2005_ms_per_stmt", t2005_ms, "ms"},
      {"peak_mem_bytes_mean", peak_bytes, "bytes"},
      {"setup_s", Median(setup_nominal_ms) / 1e3, "s"},
  };
  out.info.push_back(Printf(
      "loop: %lld statements in %.3f s wall, %d measurement windows; "
      "figures are per-window values, median over windows",
      static_cast<long long>(fig.samples), loop.wall_ms / 1e3, fig.windows));
  out.info.push_back(Printf(
      "host speed %.4f of nominal (reference slice %.5f ms at nominal); "
      "timing figures below are scaled to nominal speed; as measured: "
      "latency_p50_ms %.4f latency_p95_ms %.4f throughput_qps %.3f "
      "cpu_ms_per_stmt %.4f setup_s %.6f",
      fig.host_speed, kReferenceSliceNominalMs, raw.p50_ms, raw.p95_ms,
      raw.qps, raw.cpu_ms_per_stmt, setup_median.total_ms / 1e3));
  out.info.push_back(Printf("failed_frac = %.6f (1)",
                            Ratio(static_cast<double>(out.failed),
                                  static_cast<double>(out.attempted))));
  if (!t.write_ms.empty()) {
    out.info.push_back(Printf("write_p50_ms = %.4f ms over %zu reloads",
                              Median(t.write_ms), t.write_ms.size()));
  }
  out.info.push_back(Printf(
      "bench.host_ref_ms start %.3f end %.3f (diagnostic)", host_start,
      host_end));
  return out;
}

}  // namespace e2ebench
}  // namespace nestra
