#include "nra/explain.h"

#include <sstream>

#include "baseline/native_optimizer.h"
#include "nra/executor.h"
#include "nra/physical_plan.h"
#include "nra/profile.h"
#include "plan/binder.h"
#include "plan/tree_expr.h"
#include "verify/properties.h"
#include "verify/verifier.h"

namespace nestra {

namespace {

// Human-readable suffix for a cost-chosen hash-join strategy; empty for the
// default plan so pre-stats EXPLAIN output is unchanged.
std::string JoinStrategySuffix(const JoinBuildHints& hints) {
  return hints.perfect ? ", perfect dense-array hash" : "";
}

const char* ModeName(SelectionMode mode) {
  return mode == SelectionMode::kStrict ? "strict" : "pseudo";
}

// Preorder render of the recursive route's steps: each child link of `node`
// one line, a nest-bearing link followed by its own children's lines.
void ExplainSteps(const PhysicalPlan& plan, const QueryBlock& node, int indent,
                  std::ostringstream* oss) {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  for (const auto& child_ptr : node.children) {
    const QueryBlock& child = *child_ptr;
    const PlanStep* step = plan.StepFor(child);
    if (step == nullptr) continue;
    *oss << pad << "- link " << LinkingLabel(child) << ": ";
    switch (step->kind) {
      case PlanStepKind::kSemijoin:
        *oss << "semijoin rewrite (4.2.5)" << JoinStrategySuffix(step->hints)
             << "\n";
        break;
      case PlanStepKind::kAntijoin:
        *oss << "two-valued antijoin (proven non-NULL member comparison)"
             << JoinStrategySuffix(step->hints) << "\n";
        break;
      case PlanStepKind::kHashLinkSelect:
        *oss << (step->push_down ? "nest pushed below join (4.2.4), "
                                 : "virtual Cartesian product, ")
             << ModeName(step->mode) << " selection\n";
        break;
      case PlanStepKind::kNestSelect:
        *oss << "left outer hash join on correlation"
             << JoinStrategySuffix(step->hints) << ", "
             << (step->fused ? "fused nest+select" : "nest then select")
             << ", " << ModeName(step->mode) << " mode\n";
        ExplainSteps(plan, child, indent + 1, oss);
        break;
    }
  }
}

// Preorder render of the inferred static facts: per block the nullability /
// key / cardinality line, per link whether the member comparison is proven
// two-valued, possibly three-valued, or constant UNKNOWN. `path` holds the
// enclosing blocks (root first) and ends at `node` after the push below.
void ExplainProperties(const QueryBlock& node, const PropertyAnalyzer& analyzer,
                       std::vector<const QueryBlock*>* path,
                       std::ostringstream* oss) {
  *oss << "block " << node.id << " properties: "
       << analyzer.Analyze(node).ToString() << "\n";
  path->push_back(&node);
  for (const auto& child_ptr : node.children) {
    const QueryBlock& child = *child_ptr;
    const LinkFacts facts = analyzer.AnalyzeLink(child, *path);
    *oss << "link " << LinkingLabel(child) << ": ";
    if (facts.always_unknown) {
      *oss << "always UNKNOWN";
    } else if (facts.two_valued) {
      *oss << "two-valued";
    } else {
      *oss << "three-valued";
    }
    if (!facts.reason.empty()) *oss << " (" << facts.reason << ")";
    *oss << "\n";
    ExplainProperties(child, analyzer, path, oss);
  }
  path->pop_back();
}

// The plan-verification report over `plan`.
void ExplainVerification(const QueryBlock& root, const Catalog& catalog,
                         const PhysicalPlan& plan, std::ostringstream* oss) {
  const VerifyReport report = PlanVerifier(catalog).Verify(root, plan);
  *oss << "=== Plan verification ===\n" << report.Summary() << "\n";
  if (report.clean()) {
    *oss << "clean (0 diagnostics)\n";
  } else {
    *oss << report.ToString();
  }
}

}  // namespace

std::string ExplainQuery(const QueryBlock& root, const Catalog& catalog,
                         const NraOptions& options) {
  std::ostringstream oss;
  oss << "=== Query blocks ===\n" << root.ToString();
  oss << "=== Tree expression ===\n"
      << TreeExpression::Build(root).ToString();

  oss << "=== Nested relational plan (" << options.ToString() << ") ===\n";
  if (options.num_threads == 1) {
    oss << "execution: serial\n";
  } else if (options.num_threads <= 0) {
    // Machine-independent wording: the resolved count depends on the host.
    oss << "execution: morsel-parallel (num_threads=auto)\n";
  } else {
    oss << "execution: morsel-parallel (num_threads=" << options.num_threads
        << ")\n";
  }
  const PhysicalPlan plan = BuildPhysicalPlan(root, catalog, options);
  switch (plan.route) {
    case PlanRoute::kFlat:
      oss << "flat query: scan + filter + project\n";
      break;
    case PlanRoute::kBottomUpLinear:
      oss << "bottom-up linear-correlated pipeline (4.2.3): each level "
             "reduces before joining upward; strict selections throughout\n";
      break;
    case PlanRoute::kFusedChain:
      oss << "single-sort fused pipeline (4.2.1 + 4.2.2): one wide outer "
             "join, one sort, one streaming pass over all "
          << plan.steps.size() << " linking predicate(s)\n";
      for (const PlanStep& step : plan.steps) {
        oss << "  - level: " << LinkingLabel(*step.child) << " ("
            << (step.strict_safe ? "strict" : "pseudo") << ")"
            << JoinStrategySuffix(step.hints) << "\n";
      }
      break;
    case PlanRoute::kRecursive:
      oss << "recursive Algorithm 1:\n";
      ExplainSteps(plan, root, 1, &oss);
      break;
  }
  if (!root.order_by.empty() || root.limit >= 0 || root.distinct ||
      root.IsGrouped()) {
    oss << "finish:";
    if (root.IsGrouped()) {
      oss << " group-by(" << root.aggregates.size() << " aggregate(s))";
      if (root.having != nullptr) oss << " having";
    }
    if (!root.order_by.empty()) oss << " order-by";
    if (root.distinct) oss << " distinct";
    if (root.limit >= 0) oss << " limit " << root.limit;
    oss << "\n";
  }

  const NativePlanChoice native = ChooseNativePlan(root, catalog);
  oss << "=== Native (System A) plan ===\n" << native.explanation << "\n";

  oss << "=== Inferred properties ===\n";
  {
    const PropertyAnalyzer analyzer(catalog);
    std::vector<const QueryBlock*> path;
    ExplainProperties(root, analyzer, &path, &oss);
  }

  ExplainVerification(root, catalog, plan, &oss);
  return oss.str();
}

std::string ExplainVerifyQuery(const QueryBlock& root, const Catalog& catalog,
                               const NraOptions& options) {
  std::ostringstream oss;
  oss << "=== Inferred properties ===\n";
  {
    const PropertyAnalyzer analyzer(catalog);
    std::vector<const QueryBlock*> path;
    ExplainProperties(root, analyzer, &path, &oss);
  }
  ExplainVerification(root, catalog,
                      BuildPhysicalPlan(root, catalog, options), &oss);
  return oss.str();
}

Result<std::string> ExplainVerifySql(const std::string& sql,
                                     const Catalog& catalog,
                                     const NraOptions& options) {
  NESTRA_ASSIGN_OR_RETURN(QueryBlockPtr root, ParseAndBind(sql, catalog));
  return ExplainVerifyQuery(*root, catalog, options);
}

Result<std::string> ExplainSql(const std::string& sql, const Catalog& catalog,
                               const NraOptions& options) {
  NESTRA_ASSIGN_OR_RETURN(QueryBlockPtr root, ParseAndBind(sql, catalog));
  return ExplainQuery(*root, catalog, options);
}

Result<std::string> ExplainAnalyzeQuery(const QueryBlock& root,
                                        const Catalog& catalog,
                                        const NraOptions& options) {
  NraOptions opts = options;
  opts.profile = true;
  NraExecutor executor(catalog, opts);
  QueryProfile profile;
  NESTRA_RETURN_NOT_OK(executor.Execute(root, nullptr, &profile).status());
  return ExplainQuery(root, catalog, opts) + "=== Execution profile ===\n" +
         profile.ToString();
}

Result<std::string> ExplainAnalyzeSql(const std::string& sql,
                                      const Catalog& catalog,
                                      const NraOptions& options) {
  NraOptions opts = options;
  opts.profile = true;
  NraExecutor executor(catalog, opts);
  QueryProfile profile;
  NESTRA_RETURN_NOT_OK(
      executor.ExecuteStatementSql(sql, nullptr, &profile).status());
  // Compound statements have no single block tree to render; fall back to
  // the first branch's static plan when the statement is a plain SELECT.
  std::string head;
  const Result<std::string> static_plan = ExplainSql(sql, catalog, opts);
  if (static_plan.ok()) head = *static_plan;
  return head + "=== Execution profile ===\n" + profile.ToString();
}

}  // namespace nestra
