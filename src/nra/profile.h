#ifndef NESTRA_NRA_PROFILE_H_
#define NESTRA_NRA_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "exec/exec_node.h"
#include "exec/operator_stats.h"
#include "plan/stats/estimator.h"

namespace nestra {

/// \brief Immutable snapshot of one operator (and its subtree) taken after
/// the stage that ran it finished. `rows_in` is derived from the children's
/// `rows_out`, so renderers can show in/out per operator without threading
/// extra state through the pull protocol.
struct ProfiledOperator {
  std::string name;
  std::string detail;
  QueryPhase phase = QueryPhase::kUnattributed;
  OperatorStats stats;
  int64_t rows_in = 0;
  std::vector<ProfiledOperator> children;

  static ProfiledOperator Snapshot(const ExecNode& node);

  /// Inclusive time minus the children's inclusive time ("self" time).
  double exclusive_seconds() const;
};

/// \brief One executor stage: either an operator tree drained by
/// CollectProfiled (has_tree), or a table-function stage (Nest,
/// LinkingSelect, HashLinkSelect, MagicRestrict) described only by its
/// label, phase, wall time and output cardinality.
struct ProfiledStage {
  std::string label;
  QueryPhase phase = QueryPhase::kUnattributed;
  double seconds = 0;  // stage wall time, executor-measured
  int64_t rows_out = 0;
  // Logical byte accounting (always deterministic): bytes the stage's
  // result holds live at the fold point, and the stage's peak footprint
  // (operators' peaks plus the result). See src/common/memory_tracker.h.
  int64_t mem_bytes = 0;
  int64_t peak_mem_bytes = 0;
  bool has_tree = false;
  ProfiledOperator tree;
  PoolStatsSnapshot pool;  // pool loops this stage issued (PoolUsageScope)
};

/// \brief Per-query profile assembled by NraExecutor when
/// `NraOptions::profile` is set and the caller passes a QueryProfile out
/// parameter. Stage labels and row counts are deterministic — identical
/// across `num_threads` settings — which the profile property tests rely
/// on; only the timings vary.
class QueryProfile {
 public:
  void Clear();
  void AddStage(ProfiledStage stage) { stages_.push_back(std::move(stage)); }

  const std::vector<ProfiledStage>& stages() const { return stages_; }

  /// Wall time attributed to a paper phase: the self time of every operator
  /// tagged with it, plus, for stages tagged with it, the stage time their
  /// operator tree does not cover (all of it for tree-less stages). Summed
  /// over phases this is the summed stage time.
  double PhaseSeconds(QueryPhase phase) const;

  /// Rows produced by the stages attributed to a paper phase.
  int64_t PhaseRows(QueryPhase phase) const;

  /// Merges another profile's stages (set-operation branches), prefixing
  /// stage labels with `label_prefix` and accumulating the totals.
  void Absorb(const QueryProfile& other, const std::string& label_prefix);

  /// EXPLAIN ANALYZE rendering: totals, phase split, then each stage with
  /// its annotated operator tree.
  std::string ToString() const;

  /// JSON object (schema "nestra-query-profile-v1") for the bench sink.
  std::string ToJson() const;

  // Query-level totals, filled by the executor.
  int64_t output_rows = 0;
  double total_seconds = 0;
  int64_t io_hits = 0;
  int64_t io_seq_misses = 0;
  int64_t io_random_misses = 0;
  double sim_io_millis = 0;
  // Deterministic query peak (largest stage footprint), from the query's
  // memory tracker; max across absorbed set-operation branches.
  int64_t peak_mem_bytes = 0;
  PoolStatsSnapshot pool;  // shared-pool usage delta across the whole query

  // Planner row estimates keyed by stage label (PhysicalPlan::estimates),
  // filled before execution so ToString/ToJson can print est vs. actual per
  // stage. Labels with no stats-backed estimate are simply absent.
  std::map<std::string, StageEstimate> estimates;

 private:
  std::vector<ProfiledStage> stages_;
};

/// Drains `node` into a table. When `profile` is non-null the node tree is
/// phase-tagged (pre-tagged subtrees keep their phase), timers are enabled,
/// and a stage snapshot is appended; when null this is exactly
/// CollectTable. `vectorized` drains via NextBatch — same rows, and
/// `batches_out` shows up in the snapshot for batch-native operators.
/// Independently of the profile, when process telemetry is on the stage
/// also feeds the global metrics registry and trace sink (see StageTimer).
Result<Table> CollectProfiled(ExecNode* node, QueryPhase phase,
                              const std::string& label, QueryProfile* profile,
                              bool vectorized = false);

/// Rolls a drained operator tree's non-deterministic extras (batches,
/// adapter batches, join build/probe rows, sort rows) into the global
/// metrics registry. No-op when metrics are disabled. Called once per
/// drained stage tree — each node belongs to exactly one stage, so nothing
/// double-counts.
void FlushOperatorMetrics(const ExecNode& node);

/// \brief Scoped helper timing one executor stage. Captures the start time
/// and, with a profile, opens a PoolUsageScope that collects the pool loops
/// the stage issues until the timer dies; one of the Finish overloads
/// reports the stage to every enabled consumer:
///
///  * the QueryProfile (stage list, when constructed with a non-null one),
///  * the global metrics registry (per-phase rows/stages/seconds counters
///    and the nest-groups-peak gauge, when telemetry::MetricsEnabled()),
///  * the trace sink (one "execute"-category span, when
///    telemetry::TraceEnabled()).
///
/// With all three off, construction and Finish read no clock and do no
/// work beyond three relaxed flag loads.
class StageTimer {
 public:
  StageTimer(QueryProfile* profile, QueryPhase phase, std::string label);

  /// True when a profile sink is attached (callers gate the tree snapshot
  /// and phase tagging on this — those exist only for the profile).
  bool active() const { return profile_ != nullptr; }

  /// True when any consumer (profile, metrics, trace) is enabled.
  bool recording() const { return profile_ != nullptr || metrics_ || trace_; }

  /// Records the stage's byte accounting (live result bytes + peak
  /// footprint) to be attached to the ProfiledStage by Finish. Call before
  /// Finish; harmless without a profile sink.
  void set_mem(int64_t mem_bytes, int64_t peak_mem_bytes) {
    mem_bytes_ = mem_bytes;
    peak_mem_bytes_ = peak_mem_bytes;
  }

  /// Reports a tree-less stage.
  void Finish(int64_t rows_out);

  /// Reports a stage carrying an operator-tree snapshot (profile only; the
  /// tree is ignored without a profile sink). A root with no recorded time
  /// (a fused stage's hand-built snapshot) is charged the stage's wall
  /// time, so PhaseSeconds' self-time sum covers the stage.
  void Finish(int64_t rows_out, ProfiledOperator tree);

 private:
  void FinishImpl(int64_t rows_out, ProfiledOperator* tree);

  QueryProfile* profile_;
  QueryPhase phase_;
  std::string label_;
  bool metrics_ = false;
  bool trace_ = false;
  int64_t mem_bytes_ = 0;
  int64_t peak_mem_bytes_ = 0;
  // Profile only: collects the pool loops this stage issues.
  std::optional<PoolUsageScope> pool_usage_;
  std::chrono::steady_clock::time_point start_;
};

/// Sum of the subtree's per-operator accounted peak footprints
/// (O(#operators), run once per stage fold).
int64_t TreePeakMemBytes(const ExecNode& node);

/// Records a stage's byte accounting on `timer` (nullptr ok) and folds the
/// peak into the ambient query memory tracker, applying the soft limit.
/// Used by stages that materialize a result outside CollectProfiled
/// (table-function stages, fused scan+filter fast paths). When
/// `peak_mem_bytes` is negative the stage's peak is taken to equal its
/// live result (`mem_bytes`) — the common case for stages that build
/// exactly their output.
Status FoldStageMem(StageTimer* timer, int64_t mem_bytes,
                    int64_t peak_mem_bytes = -1);

}  // namespace nestra

#endif  // NESTRA_NRA_PROFILE_H_
