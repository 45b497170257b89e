#include "nra/executor.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/memory_tracker.h"
#include "exec/distinct.h"
#include "exec/filter.h"
#include "exec/project.h"
#include "exec/set_ops.h"
#include "exec/sort.h"
#include "sql/parser.h"
#include "nested/fused_nest_select.h"
#include "nested/linking_selection.h"
#include "nested/nest.h"
#include "nra/physical_plan.h"
#include "nra/pipeline.h"
#include "nra/planner.h"
#include "nra/profile.h"
#include "nra/rewrites.h"
#include "plan/binder.h"
#include "storage/io_sim.h"
#include "telemetry/engine_metrics.h"
#include "telemetry/slow_query.h"
#include "telemetry/trace.h"
#include "verify/verifier.h"

namespace nestra {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Parse/bind failures never reach Execute's error accounting, so the SQL
// entry points bump the error counter themselves on those paths.
void CountQueryError() {
  if (telemetry::MetricsEnabled()) {
    telemetry::Metrics().query_errors_total->Add(1);
  }
}

void MaybeLogSlowQuery(const std::string& sql, double threshold_ms,
                       double total_ms, const NraStats& stats, bool ok,
                       int num_threads, bool vectorized,
                       const std::string& session) {
  if (total_ms <= threshold_ms) return;
  telemetry::SlowQueryRecord rec;
  rec.sql = sql;
  rec.total_ms = total_ms;
  rec.join_ms = stats.join_seconds * 1e3;
  rec.nest_select_ms = stats.nest_select_seconds * 1e3;
  rec.output_rows = stats.output_rows;
  rec.num_threads = num_threads;
  rec.vectorized = vectorized;
  rec.ok = ok;
  rec.session = session;
  rec.peak_mem_bytes = stats.peak_mem_bytes;
  telemetry::LogSlowQuery(rec);
}

// Logical bytes of a nested relation: the atom rows plus every group tuple,
// recursively. Lives here (not in common/) because common/ sits below
// nested/ in the link order.
int64_t NestedTupleBytes(const NestedTuple& tuple) {
  int64_t bytes = static_cast<int64_t>(sizeof(NestedTuple)) -
                  static_cast<int64_t>(sizeof(Row)) + RowBytes(tuple.atoms);
  for (const auto& group : tuple.groups) {
    for (const NestedTuple& nt : group) bytes += NestedTupleBytes(nt);
  }
  return bytes;
}

int64_t NestedRelationBytes(const NestedRelation& rel) {
  int64_t bytes = 0;
  for (const NestedTuple& t : rel.tuples()) bytes += NestedTupleBytes(t);
  return bytes;
}

// Per-phase statement counters: the prepared-statement layer proves its
// "parse+plan once" contract by observing these stay flat across
// re-executions (see tests/server_test.cc).
void CountStatementParsed() {
  if (telemetry::MetricsEnabled()) {
    telemetry::Metrics().statements_parsed_total->Add(1);
  }
}

void CountStatementBound(int selects) {
  if (telemetry::MetricsEnabled()) {
    telemetry::Metrics().statements_bound_total->Add(selects);
  }
}

LinkingPredicate PredFor(const QueryBlock& child, const std::string& group) {
  return child.MakeLinkPredicate(group);
}

std::vector<SortKey> SortKeysFor(const std::vector<std::string>& attrs) {
  std::vector<SortKey> keys;
  keys.reserve(attrs.size());
  for (const std::string& a : attrs) keys.push_back({a, /*ascending=*/true});
  return keys;
}

}  // namespace

Result<Table> NraExecutor::Execute(const QueryBlock& root, NraStats* stats,
                                   QueryProfile* profile) {
  NraStats local;
  if (stats == nullptr) stats = &local;
  *stats = NraStats();

  // Query-scoped memory accounting: every materializing site below charges
  // into this tracker (via the thread-local installed here), and each stage
  // folds its footprint at a serial point, so the peak is deterministic at
  // fixed (engine, threads, options). The soft limit (options_.max_query_mem)
  // is enforced inside Charge/FoldStage.
  QueryMemoryTracker mem_tracker(options_.max_query_mem);
  ScopedQueryMemory scoped_mem(&mem_tracker);

  // Per-executor trace opt-in: equivalent to NESTRA_TRACE_JSON, installed
  // lazily (idempotent when the sink is already at this path).
  if (!options_.trace_path.empty()) {
    telemetry::InstallTraceSink(options_.trace_path);
  }

  // Profiling is opt-in twice over: the caller must pass a sink AND set
  // options.profile. Otherwise `prof` stays null and every stage helper
  // degenerates to the unprofiled code path. The process-wide metrics
  // registry is an independent consumer of the same baselines.
  QueryProfile* prof =
      (options_.profile && profile != nullptr) ? profile : nullptr;
  const bool metrics = telemetry::MetricsEnabled();
  IoSim* sim = (prof != nullptr || metrics) ? IoSim::Get() : nullptr;
  int64_t io_hits0 = 0, io_seq0 = 0, io_rand0 = 0;
  double sim_ms0 = 0;
  PoolStatsSnapshot pool0;
  Clock::time_point query_start;
  if (prof != nullptr || metrics) {
    if (sim != nullptr) {
      io_hits0 = sim->hits();
      io_seq0 = sim->seq_misses();
      io_rand0 = sim->random_misses();
      sim_ms0 = sim->SimMillis();
    }
    pool0 = GlobalPoolStats();  // baseline; delta taken at the end
    query_start = Clock::now();
  }
  // Every decision about how the query runs, made once: the verifier checks
  // this plan, the task DAG below runs it.
  const PhysicalPlan plan = BuildPhysicalPlan(root, catalog_, options_);
  if (prof != nullptr) {
    prof->Clear();
    prof->pool = pool0;
    // Planner-side row estimates of the plan's stages; EXPLAIN ANALYZE
    // prints them next to the actual counts.
    prof->estimates = plan.estimates;
  }

  // Static invariant check before any table is touched: a plan that would
  // violate the paper's nest / selection-mode / key-survival rules must not
  // run (it could silently return wrong answers, not just fail).
  if (options_.verify_plans) {
    Status verified;
    {
      telemetry::TraceSpan verify_span("query", "verify");
      verified = PlanVerifier(catalog_).Verify(root, plan).ToStatus();
    }
    if (metrics) {
      const telemetry::EngineMetrics& m = telemetry::Metrics();
      m.plans_verified_total->Add(1);
      if (!verified.ok()) {
        m.verify_failures_total->Add(1);
        m.query_errors_total->Add(1);
      }
    }
    NESTRA_RETURN_NOT_OK(verified);
  }

  telemetry::TraceSpan exec_span("query", "execute");
  Result<Table> result = [&]() -> Result<Table> {
    switch (plan.route) {
      case PlanRoute::kBottomUpLinear:
        return ExecuteBottomUpLinearDag(plan, root, stats, prof);
      case PlanRoute::kFusedChain:
        return ExecuteFusedLinearDag(plan, root, stats, prof);
      case PlanRoute::kRecursive:
        return ExecuteRecursiveDag(plan, root, stats, prof);
      case PlanRoute::kFlat:
        break;
    }
    const auto t0 = Clock::now();
    NESTRA_ASSIGN_OR_RETURN(Table rel, EvalBase(root, prof));
    stats->join_seconds += Seconds(t0);
    stats->intermediate_rows = rel.num_rows();
    return FinishRoot(root, std::move(rel), prof);
  }();

  // Peak is meaningful on every outcome (a memory-failed query reports how
  // far it got); stage folds have all happened by now — the lambda above ran
  // every stage to completion or returned early.
  stats->peak_mem_bytes = mem_tracker.peak();
  if (result.ok()) {
    stats->output_rows = result->num_rows();
    exec_span.set_rows(result->num_rows());
  }
  exec_span.End();
  if (prof != nullptr && result.ok()) {
    prof->peak_mem_bytes = stats->peak_mem_bytes;
    prof->output_rows = result->num_rows();
    prof->total_seconds = Seconds(query_start);
    if (sim != nullptr) {
      prof->io_hits = sim->hits() - io_hits0;
      prof->io_seq_misses = sim->seq_misses() - io_seq0;
      prof->io_random_misses = sim->random_misses() - io_rand0;
      prof->sim_io_millis = sim->SimMillis() - sim_ms0;
    }
    prof->pool = GlobalPoolStats() - pool0;
  }
  if (metrics) {
    const telemetry::EngineMetrics& m = telemetry::Metrics();
    if (result.ok()) {
      m.queries_total->Add(1);
      m.rows_out_total->Add(static_cast<double>(result->num_rows()));
      m.intermediate_rows_total->Add(
          static_cast<double>(stats->intermediate_rows));
      m.query_ms->Observe(Seconds(query_start) * 1e3);
      if (sim != nullptr) {
        m.io_hits_total->Add(static_cast<double>(sim->hits() - io_hits0));
        m.io_seq_misses_total->Add(
            static_cast<double>(sim->seq_misses() - io_seq0));
        m.io_random_misses_total->Add(
            static_cast<double>(sim->random_misses() - io_rand0));
        m.io_sim_millis_total->Add(sim->SimMillis() - sim_ms0);
      }
      const PoolStatsSnapshot pool_delta = GlobalPoolStats() - pool0;
      m.pool_parallel_loops_total->Add(
          static_cast<double>(pool_delta.parallel_loops));
      m.pool_tasks_total->Add(static_cast<double>(pool_delta.tasks_submitted));
      m.pool_wait_seconds_total->Add(pool_delta.wait_seconds);
      m.query_peak_mem_bytes->Observe(
          static_cast<double>(stats->peak_mem_bytes));
    } else {
      m.query_errors_total->Add(1);
      if (result.status().code() == StatusCode::kResourceExhausted) {
        m.mem_limit_exceeded_total->Add(1);
      }
    }
  }
  return result;
}

Result<Table> NraExecutor::ExecuteSql(const std::string& sql, NraStats* stats,
                                      QueryProfile* profile) {
  if (!options_.trace_path.empty()) {
    telemetry::InstallTraceSink(options_.trace_path);
  }
  NraStats local;
  if (stats == nullptr) stats = &local;
  const bool slow_log = options_.slow_query_ms > 0;
  Clock::time_point sql_start;
  if (slow_log) sql_start = Clock::now();

  Result<Table> result = [&]() -> Result<Table> {
    Result<AstSelectPtr> ast = [&] {
      telemetry::TraceSpan parse_span("query", "parse");
      return ParseSelect(sql);
    }();
    if (!ast.ok()) {
      CountQueryError();
      return ast.status();
    }
    CountStatementParsed();
    Result<QueryBlockPtr> root = [&] {
      telemetry::TraceSpan plan_span("query", "plan");
      return BindQuery(**ast, catalog_);
    }();
    if (!root.ok()) {
      CountQueryError();
      return root.status();
    }
    CountStatementBound(1);
    return Execute(**root, stats, profile);
  }();

  if (slow_log) {
    MaybeLogSlowQuery(sql, options_.slow_query_ms, Seconds(sql_start) * 1e3,
                      *stats, result.ok(), num_threads_, options_.vectorized,
                      options_.session_label);
  }
  return result;
}

Result<Table> NraExecutor::ExecuteStatementSql(const std::string& sql,
                                               NraStats* stats,
                                               QueryProfile* profile) {
  if (!options_.trace_path.empty()) {
    telemetry::InstallTraceSink(options_.trace_path);
  }
  const bool slow_log = options_.slow_query_ms > 0;
  Clock::time_point sql_start;
  if (slow_log) sql_start = Clock::now();

  Result<AstStatementPtr> parsed = [&] {
    telemetry::TraceSpan parse_span("query", "parse");
    return ParseStatement(sql);
  }();
  if (!parsed.ok()) {
    CountQueryError();
    return parsed.status();
  }
  CountStatementParsed();
  AstStatementPtr stmt = std::move(*parsed);
  QueryProfile* prof =
      (options_.profile && profile != nullptr) ? profile : nullptr;
  const bool multi_branch = stmt->selects.size() > 1;
  if (prof != nullptr) prof->Clear();
  NraStats total;
  Table combined;
  for (size_t i = 0; i < stmt->selects.size(); ++i) {
    Result<QueryBlockPtr> bound = [&] {
      telemetry::TraceSpan plan_span("query", "plan");
      return BindQuery(*stmt->selects[i], catalog_);
    }();
    if (!bound.ok()) {
      CountQueryError();
      return bound.status();
    }
    CountStatementBound(1);
    QueryBlockPtr root = std::move(*bound);
    NraStats branch;
    // Execute Clears the profile it is handed, so each branch profiles into
    // its own sink and the stages merge afterwards under a branch prefix.
    QueryProfile branch_profile;
    NESTRA_ASSIGN_OR_RETURN(
        Table result,
        Execute(*root, &branch, prof != nullptr ? &branch_profile : nullptr));
    if (prof != nullptr) {
      prof->Absorb(branch_profile,
                   multi_branch ? "branch" + std::to_string(i) + ": " : "");
    }
    total.join_seconds += branch.join_seconds;
    total.nest_select_seconds += branch.nest_select_seconds;
    total.intermediate_rows =
        std::max(total.intermediate_rows, branch.intermediate_rows);
    // Branches run sequentially, each with its own tracker, so the
    // statement's peak is the largest branch peak — not the sum.
    total.peak_mem_bytes =
        std::max(total.peak_mem_bytes, branch.peak_mem_bytes);
    if (i == 0) {
      combined = std::move(result);
      continue;
    }
    switch (stmt->ops[i - 1]) {
      case AstStatement::SetOp::kUnionAll: {
        NESTRA_ASSIGN_OR_RETURN(combined,
                                UnionAll(std::move(combined), result));
        break;
      }
      case AstStatement::SetOp::kUnion: {
        NESTRA_ASSIGN_OR_RETURN(combined, UnionDistinct(combined, result));
        break;
      }
      case AstStatement::SetOp::kIntersect: {
        NESTRA_ASSIGN_OR_RETURN(combined, Intersect(combined, result));
        break;
      }
      case AstStatement::SetOp::kExcept: {
        NESTRA_ASSIGN_OR_RETURN(combined, Except(combined, result));
        break;
      }
    }
  }
  total.output_rows = combined.num_rows();
  if (stats != nullptr) *stats = total;
  if (prof != nullptr) prof->output_rows = combined.num_rows();
  if (slow_log) {
    MaybeLogSlowQuery(sql, options_.slow_query_ms, Seconds(sql_start) * 1e3,
                      total, /*ok=*/true, num_threads_, options_.vectorized,
                      options_.session_label);
  }
  return combined;
}

Result<Table> NraExecutor::ExecuteFusedLinearDag(const PhysicalPlan& plan,
                                                 const QueryBlock& root,
                                                 NraStats* stats,
                                                 QueryProfile* profile) {
  // One step per level, root level first.
  const std::vector<PlanStep>& steps = plan.steps;
  StageDag dag;
  // Slots the task bodies exchange. Everything here outlives dag.Run(),
  // which blocks until the last task finished; the DAG's dependency edges
  // order the accesses.
  std::vector<Table> bases(steps.size());
  Table rel;
  Table out;

  // The base evaluations are this shape's independent pipelines: every
  // block's scan+filter(+join tree) can run at once. The wide-join chain
  // and the single sort+fused pass stay sequential, each joining as soon
  // as its base (and the previous join) is ready.
  int prev = AddBaseTask(&dag, root, &rel);
  for (size_t k = 0; k < steps.size(); ++k) {
    const int base_task = AddBaseTask(&dag, *steps[k].child, &bases[k]);
    prev = dag.AddTask(
        "join[b" + std::to_string(steps[k].child->id) + "]",
        {prev, base_task}, [&, k](NraStats* s, QueryProfile* p) {
          return OuterJoinChild(steps[k], &rel, &bases[k], s, p);
        });
  }
  // Bottom-up phase: single sort + single streaming pass over all levels.
  dag.AddTask(
      "fused-finish", {prev}, [&](NraStats* s, QueryProfile* p) -> Status {
        const auto t0 = Clock::now();
        std::vector<FusedLevelSpec> levels;
        for (const PlanStep& step : steps) {
          FusedLevelSpec spec;
          spec.nesting_attrs = step.nesting_attrs;
          spec.pred = PredFor(*step.child, /*group=*/"");
          spec.mode = step.mode;
          levels.push_back(std::move(spec));
        }
        NESTRA_ASSIGN_OR_RETURN(
            Table reduced, FusedNestSelect(std::move(rel), std::move(levels),
                                           "fused nest+select", p));
        s->nest_select_seconds += Seconds(t0);
        NESTRA_ASSIGN_OR_RETURN(out, FinishRoot(root, std::move(reduced), p));
        return Status::OK();
      });
  NESTRA_RETURN_NOT_OK(dag.Run(num_threads_, stats, profile));
  return out;
}

Result<Table> NraExecutor::ExecuteBottomUpLinearDag(const PhysicalPlan& plan,
                                                    const QueryBlock& root,
                                                    NraStats* stats,
                                                    QueryProfile* profile) {
  // One step per level, innermost first.
  const std::vector<PlanStep>& steps = plan.steps;
  StageDag dag;
  std::vector<Table> bases(steps.size());
  Table cur;
  Table out;

  // Same independence structure as the fused shape: all base evaluations
  // fan out, the bottom-up reduction chain consumes them leaf to root.
  int prev = AddBaseTask(&dag, *steps.front().child, &cur);
  for (size_t k = 0; k < steps.size(); ++k) {
    const int base_task = AddBaseTask(&dag, *steps[k].parent, &bases[k]);
    prev = dag.AddTask(
        "reduce[b" + std::to_string(steps[k].child->id) + "]",
        {prev, base_task}, [&, k](NraStats* s, QueryProfile* p) -> Status {
          NESTRA_RETURN_NOT_OK(
              ReduceChild(steps[k], &bases[k], &cur, &cur, s, p));
          if (k + 1 == steps.size()) {
            NESTRA_ASSIGN_OR_RETURN(out, FinishRoot(root, std::move(cur), p));
          }
          return Status::OK();
        });
  }
  NESTRA_RETURN_NOT_OK(dag.Run(num_threads_, stats, profile));
  return out;
}

int NraExecutor::AddBaseTask(StageDag* dag, const QueryBlock& block,
                             Table* out) {
  return dag->AddTask(
      "base[b" + std::to_string(block.id) + "]", {},
      [this, &block, out](NraStats* s, QueryProfile* p) -> Status {
        const auto t0 = Clock::now();
        NESTRA_ASSIGN_OR_RETURN(*out, EvalBase(block, p));
        s->join_seconds += Seconds(t0);
        return Status::OK();
      });
}

Status NraExecutor::OuterJoinChild(const PlanStep& step, Table* rel,
                                   Table* base, NraStats* stats,
                                   QueryProfile* profile) {
  const QueryBlock& child = *step.child;
  const auto t0 = Clock::now();
  if (step.magic) {
    StageTimer magic_timer(profile, QueryPhase::kUnnestJoin,
                           "magic[b" + std::to_string(child.id) + "]");
    NESTRA_ASSIGN_OR_RETURN(*base,
                            MagicRestrict(*rel, std::move(*base), child));
    NESTRA_RETURN_NOT_OK(FoldStageMem(&magic_timer, TableBytes(*base)));
    magic_timer.Finish(base->num_rows());
  }
  NESTRA_ASSIGN_OR_RETURN(
      *rel, JoinWithChild(std::move(*rel), std::move(*base), child,
                          JoinType::kLeftOuter, /*extra_condition=*/nullptr,
                          num_threads_, profile, options_.vectorized,
                          step.hints));
  stats->join_seconds += Seconds(t0);
  stats->intermediate_rows =
      std::max(stats->intermediate_rows, rel->num_rows());
  return Status::OK();
}

Status NraExecutor::LinkSelect(Table outer, const Table& inner,
                               const std::vector<std::string>& outer_keys,
                               const std::vector<std::string>& inner_keys,
                               const PlanStep& step, Table* out,
                               NraStats* stats, QueryProfile* profile) {
  const auto t0 = Clock::now();
  StageTimer link_timer(profile, QueryPhase::kLinkingSelection,
                        "link-select[b" + std::to_string(step.child->id) +
                            "]");
  NESTRA_ASSIGN_OR_RETURN(
      *out, HashLinkSelect(std::move(outer), inner, outer_keys, inner_keys,
                           *step.child, step.mode, step.pad_attrs,
                           num_threads_));
  NESTRA_RETURN_NOT_OK(FoldStageMem(&link_timer, TableBytes(*out)));
  link_timer.Finish(out->num_rows());
  stats->nest_select_seconds += Seconds(t0);
  return Status::OK();
}

Result<Table> NraExecutor::FusedNestSelect(Table rel,
                                           std::vector<FusedLevelSpec> levels,
                                           const std::string& label,
                                           QueryProfile* profile) {
  auto sort = std::make_unique<SortNode>(
      std::make_unique<TableSourceNode>(std::move(rel)),
      SortKeysFor(levels.back().nesting_attrs), num_threads_,
      options_.vectorized);
  // Pre-tag the sort subtree as the nest phase: CollectProfiled only fills
  // in still-unattributed nodes, so the fused evaluator itself lands in
  // linking-selection while its sort input counts as nesting work.
  sort->SetPhaseRecursive(QueryPhase::kNest);
  auto fused =
      std::make_unique<FusedNestSelectNode>(std::move(sort), std::move(levels));
  return CollectProfiled(fused.get(), QueryPhase::kLinkingSelection, label,
                         profile, options_.vectorized);
}

Status NraExecutor::ApplyNestSelect(const PlanStep& step, Table* rel,
                                    Table* out, NraStats* stats,
                                    QueryProfile* profile) {
  const auto t0 = Clock::now();
  const QueryBlock& child = *step.child;
  const std::string bid = std::to_string(child.id);
  if (step.fused) {
    FusedLevelSpec spec;
    spec.nesting_attrs = step.nesting_attrs;
    spec.pred = PredFor(child, /*group=*/"");
    spec.mode = step.mode;
    spec.pad_attrs = step.pad_attrs;
    std::vector<FusedLevelSpec> levels;
    levels.push_back(std::move(spec));
    NESTRA_ASSIGN_OR_RETURN(*out, FusedNestSelect(std::move(*rel),
                                                  std::move(levels),
                                                  "fused[b" + bid + "]",
                                                  profile));
  } else {
    StageTimer nest_timer(profile, QueryPhase::kNest, "nest[b" + bid + "]");
    NESTRA_ASSIGN_OR_RETURN(
        NestedRelation nested,
        Nest(*rel, step.nesting_attrs, step.nested_attrs, "g",
             options_.nest_method, num_threads_));
    NESTRA_RETURN_NOT_OK(
        FoldStageMem(&nest_timer, NestedRelationBytes(nested)));
    nest_timer.Finish(nested.num_tuples());
    StageTimer select_timer(profile, QueryPhase::kLinkingSelection,
                            "select[b" + bid + "]");
    NESTRA_ASSIGN_OR_RETURN(*out, LinkingSelect(nested, PredFor(child, "g"),
                                                step.mode, step.pad_attrs));
    NESTRA_RETURN_NOT_OK(FoldStageMem(&select_timer, TableBytes(*out)));
    select_timer.Finish(out->num_rows());
  }
  stats->nest_select_seconds += Seconds(t0);
  return Status::OK();
}

Status NraExecutor::ReduceChild(const PlanStep& step, Table* outer,
                                Table* inner, Table* out, NraStats* stats,
                                QueryProfile* profile) {
  // §4.2.4 push-down needs both materialized schemas to split the
  // correlation into key lists, so that one check stays in the task.
  std::vector<std::string> okeys, ikeys;
  if (step.push_down && AllEquiCorrelation(*step.child, outer->schema(),
                                           inner->schema(), &okeys, &ikeys)) {
    return LinkSelect(std::move(*outer), *inner, okeys, ikeys, step, out,
                      stats, profile);
  }
  // The join result lives only as long as this call.
  Table joined = std::move(*outer);
  NESTRA_RETURN_NOT_OK(OuterJoinChild(step, &joined, inner, stats, profile));
  return ApplyNestSelect(step, &joined, out, stats, profile);
}

int NraExecutor::BuildComputeTaskDag(StageDag* dag, const PhysicalPlan& plan,
                                     const QueryBlock& node, int prev,
                                     Table* rel, std::deque<Table>* bases) {
  for (const auto& child_ptr : node.children) {
    const QueryBlock& child = *child_ptr;
    const PlanStep* step = plan.StepFor(child);
    NESTRA_CHECK(step != nullptr);
    const std::string bid = std::to_string(child.id);
    Table* base = &bases->emplace_back();
    const int base_task = AddBaseTask(dag, child, base);

    // §4.2.5 semijoin or proven-2VL antijoin: the join alone evaluates the
    // link, no nest at all.
    if (step->kind == PlanStepKind::kSemijoin ||
        step->kind == PlanStepKind::kAntijoin) {
      const bool semijoin = step->kind == PlanStepKind::kSemijoin;
      prev = dag->AddTask(
          (semijoin ? "semijoin[b" : "antijoin[b") + bid + "]",
          {prev, base_task},
          [this, step, rel, base, semijoin](NraStats* s,
                                            QueryProfile* p) -> Status {
            const QueryBlock& child = *step->child;
            NESTRA_ASSIGN_OR_RETURN(ExprPtr extra,
                                    semijoin ? PositiveLinkJoinCondition(child)
                                             : AntiLinkJoinCondition(child));
            const auto t0 = Clock::now();
            NESTRA_ASSIGN_OR_RETURN(
                *rel, JoinWithChild(std::move(*rel), std::move(*base), child,
                                    semijoin ? JoinType::kLeftSemi
                                             : JoinType::kLeftAnti,
                                    std::move(extra), num_threads_, p,
                                    options_.vectorized, step->hints));
            s->join_seconds += Seconds(t0);
            return Status::OK();
          });
      continue;
    }

    // Virtual Cartesian product: the subquery executes once and its (single,
    // shared) value set is tested against every outer tuple, instead of
    // materializing an actual cross join. HashLinkSelect with an empty key
    // list is exactly that: one group holding the whole subquery result.
    if (step->kind == PlanStepKind::kHashLinkSelect && !step->push_down) {
      prev = dag->AddTask(
          "link-select[b" + bid + "]", {prev, base_task},
          [this, step, rel, base](NraStats* s, QueryProfile* p) -> Status {
            return LinkSelect(std::move(*rel), *base, /*outer_keys=*/{},
                              /*inner_keys=*/{}, *step, rel, s, p);
          });
      continue;
    }

    // A leaf taking neither rewrite: one combined task.
    if (child.IsLeaf()) {
      prev = dag->AddTask(
          "reduce[b" + bid + "]", {prev, base_task},
          [this, step, rel, base](NraStats* s, QueryProfile* p) {
            return ReduceChild(*step, rel, base, rel, s, p);
          });
      continue;
    }

    // Non-leaf child, Algorithm 1: join task (way down) -> the child's own
    // task chain -> nest task (way up: nest by the retained prefix and apply
    // the linking selection, padding `node`'s attributes in pseudo mode).
    prev = dag->AddTask(
        "join[b" + bid + "]", {prev, base_task},
        [this, step, rel, base](NraStats* s, QueryProfile* p) {
          return OuterJoinChild(*step, rel, base, s, p);
        });
    prev = BuildComputeTaskDag(dag, plan, child, prev, rel, bases);
    prev = dag->AddTask(
        "nest[b" + bid + "]", {prev},
        [this, step, rel](NraStats* s, QueryProfile* p) {
          return ApplyNestSelect(*step, rel, rel, s, p);
        });
  }
  return prev;
}

Result<Table> NraExecutor::ExecuteRecursiveDag(const PhysicalPlan& plan,
                                               const QueryBlock& root,
                                               NraStats* stats,
                                               QueryProfile* profile) {
  StageDag dag;
  // Base tables live in a deque so the pointers handed to task bodies stay
  // stable while the recursive builder keeps appending.
  std::deque<Table> bases;
  Table rel;
  Table out;

  const int root_base = AddBaseTask(&dag, root, &rel);
  const int last =
      BuildComputeTaskDag(&dag, plan, root, root_base, &rel, &bases);
  dag.AddTask("finish", {last},
              [&](NraStats* /*s*/, QueryProfile* p) -> Status {
                NESTRA_ASSIGN_OR_RETURN(out,
                                        FinishRoot(root, std::move(rel), p));
                return Status::OK();
              });
  NESTRA_RETURN_NOT_OK(dag.Run(num_threads_, stats, profile));
  return out;
}

Result<Table> NraExecutor::EvalBase(const QueryBlock& block,
                                    QueryProfile* profile) {
  return EvalBlockBase(block, catalog_, block.carried, num_threads_, profile,
                       options_.vectorized, options_.two_valued,
                       options_.cost_based);
}

Result<Table> NraExecutor::FinishRoot(const QueryBlock& root, Table rel,
                                      QueryProfile* profile) {
  // The root-key guard drops pseudo-padded root tuples (only produced by
  // tree queries with negative sibling links): a padded key marks failure.
  return FinalizeRootOutput(root, std::move(rel),
                            /*key_filter_attr=*/root.key_attr, num_threads_,
                            profile, options_.vectorized);
}

}  // namespace nestra
