#include "nra/profile.h"

#include <chrono>
#include <cstdio>
#include <sstream>

#include "common/memory_tracker.h"
#include "telemetry/engine_metrics.h"
#include "telemetry/trace.h"

namespace nestra {

namespace {

using Clock = std::chrono::steady_clock;

constexpr QueryPhase kAllPhases[] = {
    QueryPhase::kUnnestJoin, QueryPhase::kNest, QueryPhase::kLinkingSelection,
    QueryPhase::kPostProcessing, QueryPhase::kUnattributed};

void SumPhase(const ProfiledOperator& op, QueryPhase phase, double* seconds) {
  if (op.phase == phase) *seconds += op.exclusive_seconds();
  for (const ProfiledOperator& child : op.children) {
    SumPhase(child, phase, seconds);
  }
}

// Fixed-precision seconds (µs resolution) keeps the text output compact.
std::string FormatSeconds(double seconds) {
  std::ostringstream oss;
  oss.setf(std::ios::fixed);
  oss.precision(6);
  oss << seconds << "s";
  return oss.str();
}

void RenderOperator(const ProfiledOperator& op, int depth,
                    std::ostringstream* oss) {
  *oss << std::string(static_cast<size_t>(depth) * 2, ' ') << op.name;
  if (!op.detail.empty()) *oss << "(" << op.detail << ")";
  *oss << "  phase=" << QueryPhaseLabel(op.phase)
       << " rows_in=" << op.rows_in << " rows_out=" << op.stats.rows_out
       << " next_calls=" << op.stats.next_calls;
  if (op.stats.batches_out > 0) {
    *oss << " batches=" << op.stats.batches_out;
    // Which of those came through the row-at-a-time adapter (operator has
    // no native NextBatchImpl) — the vectorized engine's seams.
    if (op.stats.adapter_batches > 0) {
      *oss << " (adapter=" << op.stats.adapter_batches << ")";
    }
  }
  if (op.stats.total_seconds() > 0) {
    *oss << " time=" << FormatSeconds(op.stats.total_seconds())
         << " self=" << FormatSeconds(op.exclusive_seconds());
  }
  if (op.stats.build_rows > 0) *oss << " build_rows=" << op.stats.build_rows;
  if (op.stats.probe_rows > 0) *oss << " probes=" << op.stats.probe_rows;
  if (op.stats.sort_rows > 0) *oss << " sort_rows=" << op.stats.sort_rows;
  if (op.stats.sort_bytes > 0) *oss << " sort_bytes=" << op.stats.sort_bytes;
  if (op.stats.peak_mem_bytes > 0) {
    *oss << " mem=" << op.stats.mem_bytes
         << " peak=" << op.stats.peak_mem_bytes;
  }
  if (op.stats.io_hits + op.stats.io_seq_misses + op.stats.io_random_misses >
      0) {
    *oss << " io=" << op.stats.io_hits << "h/" << op.stats.io_seq_misses
         << "sm/" << op.stats.io_random_misses << "rm";
  }
  *oss << "\n";
  for (const ProfiledOperator& child : op.children) {
    RenderOperator(child, depth + 1, oss);
  }
}

void JsonEscape(const std::string& in, std::ostringstream* oss) {
  for (const char c : in) {
    switch (c) {
      case '"':
        *oss << "\\\"";
        break;
      case '\\':
        *oss << "\\\\";
        break;
      case '\n':
        *oss << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *oss << buf;
        } else {
          *oss << c;
        }
    }
  }
}

void OperatorToJson(const ProfiledOperator& op, std::ostringstream* oss) {
  *oss << "{\"name\":\"";
  JsonEscape(op.name, oss);
  *oss << "\"";
  if (!op.detail.empty()) {
    *oss << ",\"detail\":\"";
    JsonEscape(op.detail, oss);
    *oss << "\"";
  }
  *oss << ",\"phase\":\"" << QueryPhaseLabel(op.phase) << "\""
       << ",\"rows_in\":" << op.rows_in
       << ",\"rows_out\":" << op.stats.rows_out
       << ",\"next_calls\":" << op.stats.next_calls
       << ",\"seconds\":" << op.stats.total_seconds()
       << ",\"self_seconds\":" << op.exclusive_seconds();
  if (op.stats.batches_out > 0) {
    *oss << ",\"batches_out\":" << op.stats.batches_out;
    if (op.stats.adapter_batches > 0) {
      *oss << ",\"adapter_batches\":" << op.stats.adapter_batches;
    }
  }
  if (op.stats.build_rows > 0) {
    *oss << ",\"build_rows\":" << op.stats.build_rows;
  }
  if (op.stats.probe_rows > 0) *oss << ",\"probes\":" << op.stats.probe_rows;
  if (op.stats.sort_rows > 0) {
    *oss << ",\"sort_rows\":" << op.stats.sort_rows
         << ",\"sort_bytes\":" << op.stats.sort_bytes;
  }
  if (op.stats.peak_mem_bytes > 0) {
    *oss << ",\"mem_bytes\":" << op.stats.mem_bytes
         << ",\"peak_bytes\":" << op.stats.peak_mem_bytes;
  }
  if (op.stats.io_hits + op.stats.io_seq_misses + op.stats.io_random_misses >
      0) {
    *oss << ",\"io_hits\":" << op.stats.io_hits
         << ",\"io_seq_misses\":" << op.stats.io_seq_misses
         << ",\"io_random_misses\":" << op.stats.io_random_misses;
  }
  if (!op.children.empty()) {
    *oss << ",\"children\":[";
    for (size_t i = 0; i < op.children.size(); ++i) {
      if (i > 0) *oss << ",";
      OperatorToJson(op.children[i], oss);
    }
    *oss << "]";
  }
  *oss << "}";
}

}  // namespace

ProfiledOperator ProfiledOperator::Snapshot(const ExecNode& node) {
  ProfiledOperator op;
  op.name = node.name();
  op.detail = node.detail();
  op.phase = node.phase();
  op.stats = node.stats();
  for (const ExecNode* child : node.children()) {
    op.children.push_back(Snapshot(*child));
    op.rows_in += op.children.back().stats.rows_out;
  }
  return op;
}

double ProfiledOperator::exclusive_seconds() const {
  double self = stats.total_seconds();
  for (const ProfiledOperator& child : children) {
    self -= child.stats.total_seconds();
  }
  return self < 0 ? 0 : self;
}

void QueryProfile::Clear() {
  stages_.clear();
  estimates.clear();
  output_rows = 0;
  total_seconds = 0;
  io_hits = 0;
  io_seq_misses = 0;
  io_random_misses = 0;
  sim_io_millis = 0;
  peak_mem_bytes = 0;
  pool = PoolStatsSnapshot{};
}

double QueryProfile::PhaseSeconds(QueryPhase phase) const {
  double seconds = 0;
  for (const ProfiledStage& stage : stages_) {
    if (stage.has_tree) {
      SumPhase(stage.tree, phase, &seconds);
      // Stage time outside the operator tree — draining it into the result
      // table — belongs to the stage's own phase.
      const double outside = stage.seconds - stage.tree.stats.total_seconds();
      if (stage.phase == phase && outside > 0) seconds += outside;
    } else if (stage.phase == phase) {
      seconds += stage.seconds;
    }
  }
  return seconds;
}

int64_t QueryProfile::PhaseRows(QueryPhase phase) const {
  int64_t rows = 0;
  for (const ProfiledStage& stage : stages_) {
    if (stage.phase == phase) rows += stage.rows_out;
  }
  return rows;
}

void QueryProfile::Absorb(const QueryProfile& other,
                          const std::string& label_prefix) {
  for (ProfiledStage stage : other.stages_) {
    stage.label = label_prefix + stage.label;
    stages_.push_back(std::move(stage));
  }
  for (const auto& [label, est] : other.estimates) {
    estimates.emplace(label_prefix + label, est);
  }
  total_seconds += other.total_seconds;
  io_hits += other.io_hits;
  io_seq_misses += other.io_seq_misses;
  io_random_misses += other.io_random_misses;
  sim_io_millis += other.sim_io_millis;
  // Branches run one after another, so the query's peak is the largest
  // branch peak, not the sum.
  if (other.peak_mem_bytes > peak_mem_bytes) {
    peak_mem_bytes = other.peak_mem_bytes;
  }
  pool.parallel_loops += other.pool.parallel_loops;
  pool.tasks_submitted += other.pool.tasks_submitted;
  pool.wait_seconds += other.pool.wait_seconds;
}

std::string QueryProfile::ToString() const {
  std::ostringstream oss;
  oss << "Query profile: " << output_rows << " rows in "
      << FormatSeconds(total_seconds);
  if (peak_mem_bytes > 0) oss << "  peak_mem=" << peak_mem_bytes << "B";
  if (io_hits + io_seq_misses + io_random_misses > 0) {
    oss << "  (io " << io_hits << " hits, " << io_seq_misses
        << " seq misses, " << io_random_misses << " random misses, sim "
        << sim_io_millis << "ms)";
  }
  oss << "\n";
  oss << "phases:";
  for (const QueryPhase phase : kAllPhases) {
    const double seconds = PhaseSeconds(phase);
    const int64_t rows = PhaseRows(phase);
    if (seconds == 0 && rows == 0 && phase == QueryPhase::kUnattributed) {
      continue;
    }
    oss << "  " << QueryPhaseLabel(phase) << "=" << FormatSeconds(seconds)
        << "/" << rows << " rows";
  }
  oss << "\n";
  if (pool.parallel_loops > 0) {
    oss << "thread pool: " << pool.parallel_loops << " parallel loops, "
        << pool.tasks_submitted << " tasks, wait "
        << FormatSeconds(pool.wait_seconds) << "\n";
  }
  for (const ProfiledStage& stage : stages_) {
    oss << "stage " << stage.label << "  phase="
        << QueryPhaseLabel(stage.phase) << " rows_out=" << stage.rows_out;
    const auto est = estimates.find(stage.label);
    if (est != estimates.end()) {
      // Point estimate when the planner had one, otherwise an upper bound
      // (`est<=`), so est vs. actual reads off one line per stage.
      if (est->second.rows >= 0) {
        oss << " est=" << est->second.rows;
      } else if (est->second.bound >= 0) {
        oss << " est<=" << est->second.bound;
      }
    }
    oss << " time=" << FormatSeconds(stage.seconds);
    if (stage.peak_mem_bytes > 0) {
      oss << " mem=" << stage.mem_bytes << " peak=" << stage.peak_mem_bytes;
    }
    if (stage.pool.parallel_loops > 0) {
      oss << " pool_loops=" << stage.pool.parallel_loops
          << " pool_tasks=" << stage.pool.tasks_submitted;
    }
    oss << "\n";
    if (stage.has_tree) RenderOperator(stage.tree, 1, &oss);
  }
  return oss.str();
}

std::string QueryProfile::ToJson() const {
  std::ostringstream oss;
  oss << "{\"schema\":\"nestra-query-profile-v1\""
      << ",\"output_rows\":" << output_rows
      << ",\"total_seconds\":" << total_seconds
      << ",\"peak_mem_bytes\":" << peak_mem_bytes << ",\"phases\":{";
  bool first = true;
  for (const QueryPhase phase : kAllPhases) {
    if (!first) oss << ",";
    first = false;
    oss << "\"" << QueryPhaseLabel(phase)
        << "\":{\"seconds\":" << PhaseSeconds(phase)
        << ",\"rows\":" << PhaseRows(phase) << "}";
  }
  oss << "},\"io\":{\"hits\":" << io_hits
      << ",\"seq_misses\":" << io_seq_misses
      << ",\"random_misses\":" << io_random_misses
      << ",\"sim_millis\":" << sim_io_millis << "}"
      << ",\"pool\":{\"parallel_loops\":" << pool.parallel_loops
      << ",\"tasks\":" << pool.tasks_submitted
      << ",\"wait_seconds\":" << pool.wait_seconds << "}"
      << ",\"stages\":[";
  for (size_t i = 0; i < stages_.size(); ++i) {
    const ProfiledStage& stage = stages_[i];
    if (i > 0) oss << ",";
    oss << "{\"label\":\"";
    JsonEscape(stage.label, &oss);
    oss << "\",\"phase\":\"" << QueryPhaseLabel(stage.phase) << "\""
        << ",\"seconds\":" << stage.seconds
        << ",\"rows_out\":" << stage.rows_out
        << ",\"mem_bytes\":" << stage.mem_bytes
        << ",\"peak_bytes\":" << stage.peak_mem_bytes;
    const auto est = estimates.find(stage.label);
    if (est != estimates.end()) {
      if (est->second.rows >= 0) {
        oss << ",\"est_rows\":" << est->second.rows;
      } else if (est->second.bound >= 0) {
        oss << ",\"est_rows_bound\":" << est->second.bound;
      }
    }
    if (stage.has_tree) {
      oss << ",\"tree\":";
      OperatorToJson(stage.tree, &oss);
    }
    oss << "}";
  }
  oss << "]}";
  return oss.str();
}

StageTimer::StageTimer(QueryProfile* profile, QueryPhase phase,
                       std::string label)
    : profile_(profile),
      phase_(phase),
      label_(std::move(label)),
      metrics_(telemetry::MetricsEnabled()),
      trace_(telemetry::TraceEnabled()) {
  if (!recording()) return;
  if (profile_ != nullptr) pool_usage_.emplace();
  start_ = Clock::now();
}

void StageTimer::FinishImpl(int64_t rows_out, ProfiledOperator* tree) {
  if (!recording()) return;
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start_).count();
  if (metrics_) {
    const telemetry::EngineMetrics& m = telemetry::Metrics();
    const int p = static_cast<int>(phase_);
    m.phase_rows_total[p]->Add(static_cast<double>(rows_out));
    m.phase_stages_total[p]->Add(1);
    m.phase_seconds_total[p]->Add(seconds);
    if (phase_ == QueryPhase::kNest) {
      m.nest_groups_peak->UpdateMax(static_cast<double>(rows_out));
    }
  }
  if (trace_) {
    telemetry::RecordCompleteEvent("execute", label_,
                                   telemetry::TraceTimeUs(start_),
                                   seconds * 1e6, rows_out,
                                   QueryPhaseLabel(phase_));
  }
  if (profile_ == nullptr) return;
  ProfiledStage stage;
  stage.label = std::move(label_);
  stage.phase = phase_;
  stage.seconds = seconds;
  stage.rows_out = rows_out;
  stage.mem_bytes = mem_bytes_;
  stage.peak_mem_bytes = peak_mem_bytes_;
  stage.pool = pool_usage_->stats();
  if (tree != nullptr) {
    if (tree->stats.total_seconds() == 0) tree->stats.next_seconds = seconds;
    stage.has_tree = true;
    stage.tree = std::move(*tree);
  }
  profile_->AddStage(std::move(stage));
}

void StageTimer::Finish(int64_t rows_out) { FinishImpl(rows_out, nullptr); }

void StageTimer::Finish(int64_t rows_out, ProfiledOperator tree) {
  FinishImpl(rows_out, &tree);
}

namespace {

void AccumulateTreeStats(const ExecNode& node, OperatorStats* total) {
  const OperatorStats& s = node.stats();
  total->batches_out += s.batches_out;
  total->adapter_batches += s.adapter_batches;
  total->build_rows += s.build_rows;
  total->probe_rows += s.probe_rows;
  total->sort_rows += s.sort_rows;
  for (const ExecNode* child : node.children()) {
    AccumulateTreeStats(*child, total);
  }
}

}  // namespace

void FlushOperatorMetrics(const ExecNode& node) {
  if (!telemetry::MetricsEnabled()) return;
  OperatorStats total;
  AccumulateTreeStats(node, &total);
  const telemetry::EngineMetrics& m = telemetry::Metrics();
  if (total.batches_out > 0) {
    m.batches_total->Add(static_cast<double>(total.batches_out));
  }
  if (total.adapter_batches > 0) {
    m.adapter_batches_total->Add(static_cast<double>(total.adapter_batches));
  }
  if (total.build_rows > 0) {
    m.join_build_rows_total->Add(static_cast<double>(total.build_rows));
  }
  if (total.probe_rows > 0) {
    m.join_probe_rows_total->Add(static_cast<double>(total.probe_rows));
  }
  if (total.sort_rows > 0) {
    m.sort_rows_total->Add(static_cast<double>(total.sort_rows));
  }
}

int64_t TreePeakMemBytes(const ExecNode& node) {
  int64_t total = node.stats().peak_mem_bytes;
  for (const ExecNode* child : node.children()) {
    total += TreePeakMemBytes(*child);
  }
  return total;
}

Status FoldStageMem(StageTimer* timer, int64_t mem_bytes,
                    int64_t peak_mem_bytes) {
  if (peak_mem_bytes < 0) peak_mem_bytes = mem_bytes;
  if (timer != nullptr) timer->set_mem(mem_bytes, peak_mem_bytes);
  if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
    return mem->FoldStage(peak_mem_bytes);
  }
  return Status::OK();
}

Result<Table> CollectProfiled(ExecNode* node, QueryPhase phase,
                              const std::string& label, QueryProfile* profile,
                              bool vectorized) {
  StageTimer timer(profile, phase, label);
  if (timer.active()) {
    node->SetPhaseRecursive(phase);
    node->EnableTimingRecursive();
  }
  int64_t out_bytes = 0;
  Result<Table> result = CollectTable(node, vectorized, &out_bytes);
  if (!result.ok()) return result;
  // Always-on memory fold (independent of profiling): the stage footprint
  // is the operators' accounted peaks plus the materialized result. Folded
  // with a commutative max, so the query peak is deterministic no matter
  // how pipeline tasks interleave; the same fold applies the soft limit.
  const int64_t stage_peak = TreePeakMemBytes(*node) + out_bytes;
  if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
    NESTRA_RETURN_NOT_OK(mem->FoldStage(stage_peak));
  }
  if (!timer.recording()) return result;
  FlushOperatorMetrics(*node);
  timer.set_mem(out_bytes, stage_peak);
  if (timer.active()) {
    timer.Finish(result->num_rows(), ProfiledOperator::Snapshot(*node));
  } else {
    timer.Finish(result->num_rows());
  }
  return result;
}

}  // namespace nestra
