#include "nra/explain.h"

#include <sstream>

#include "baseline/native_optimizer.h"
#include "exec/join_hints.h"
#include "nra/cost.h"
#include "nra/executor.h"
#include "nra/planner.h"
#include "nra/profile.h"
#include "nra/rewrites.h"
#include "plan/binder.h"
#include "plan/tree_expr.h"
#include "verify/properties.h"
#include "verify/verifier.h"

namespace nestra {

namespace {

// Column-name-level check of the §4.2.4 precondition (the executor's
// AllEquiCorrelation needs materialized schemas; for EXPLAIN a structural
// test on the predicate shapes suffices and matches the executor because
// binding already validated the column sides).
bool LooksEquiCorrelated(const QueryBlock& child) {
  if (child.correlated_preds.empty()) return false;
  for (const ExprPtr& p : child.correlated_preds) {
    const auto* cmp = dynamic_cast<const Comparison*>(p.get());
    if (cmp == nullptr || cmp->op() != CmpOp::kEq) return false;
    if (dynamic_cast<const ColumnRef*>(&cmp->lhs()) == nullptr) return false;
    if (dynamic_cast<const ColumnRef*>(&cmp->rhs()) == nullptr) return false;
  }
  return true;
}

// Human-readable suffix for a cost-chosen hash-join strategy; empty for the
// default plan so pre-stats EXPLAIN output is unchanged. Computed through
// the same JoinStrategyFor the executor passes to JoinWithChild.
std::string JoinStrategySuffix(const JoinBuildHints& hints) {
  return hints.perfect ? ", perfect dense-array hash" : "";
}

void ExplainNode(const QueryBlock& node, const Catalog& catalog,
                 const NraOptions& options,
                 std::vector<const QueryBlock*>* path, int indent,
                 std::ostringstream* oss) {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  for (const auto& child_ptr : node.children) {
    const QueryBlock& child = *child_ptr;
    const bool strict_safe = StrictSafe(*path);
    const char* mode = strict_safe ? "strict" : "pseudo";

    // The shared predicates (nra/cost.h, nra/rewrites.h) keep every branch
    // here in lockstep with NraExecutor and PlanVerifier::OutlineNode.
    const std::string strategy =
        JoinStrategySuffix(JoinStrategyFor(child, *path, catalog, options));
    *oss << pad << "- link " << LinkingLabel(child) << ": ";
    if (TakesSemijoinRewrite(child, *path, strict_safe, catalog, options)) {
      *oss << "semijoin rewrite (4.2.5)" << strategy << "\n";
      continue;
    }
    if (TakesTwoValuedAntijoin(child, *path, catalog, options)) {
      *oss << "two-valued antijoin (proven non-NULL member comparison)"
           << strategy << "\n";
      continue;
    }
    if (child.IsLeaf() && child.correlated_preds.empty()) {
      *oss << "virtual Cartesian product, " << mode << " selection\n";
      continue;
    }
    if (TakesNestPushDown(child, *path, catalog, options) &&
        LooksEquiCorrelated(child)) {
      *oss << "nest pushed below join (4.2.4), " << mode << " selection\n";
      continue;
    }
    *oss << "left outer hash join on correlation" << strategy << ", "
         << (options.fused ? "fused nest+select" : "nest then select")
         << ", " << mode << " mode\n";
    path->push_back(&child);
    ExplainNode(child, catalog, options, path, indent + 1, oss);
    path->pop_back();
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
  if (root.children.empty()) {
    oss << "flat query: scan + filter + project\n";
  } else if (options.bottom_up_linear && root.IsLinearCorrelated()) {
    oss << "bottom-up linear-correlated pipeline (4.2.3): each level "
           "reduces before joining upward; strict selections throughout\n";
  } else {
    bool fused_whole_chain = false;
    if (options.fused && root.IsLinear() && !options.push_down_nest &&
        !options.rewrite_positive) {
      const Result<std::vector<const QueryBlock*>> chain = LinearChain(root);
      if (chain.ok()) {
        fused_whole_chain = true;
        for (size_t i = 1; i < chain->size(); ++i) {
          fused_whole_chain =
              fused_whole_chain && !(*chain)[i]->correlated_preds.empty();
        }
        // The executor's fused-pipeline bypass, via the shared predicate: a
        // chain whose leaf link runs as a proven two-valued antijoin takes
        // the recursive route instead of the single-sort pipeline.
        if (fused_whole_chain &&
            FusedChainBypassesTwoValued(*chain, catalog, options)) {
          fused_whole_chain = false;
        }
        // Same for a cost-gated §4.2.5/§4.2.4 rewrite on the chain's leaf.
        if (fused_whole_chain &&
            FusedChainBypassesForCost(*chain, catalog, options)) {
          fused_whole_chain = false;
        }
      }
    }
    if (fused_whole_chain) {
      oss << "single-sort fused pipeline (4.2.1 + 4.2.2): one wide outer "
             "join, one sort, one streaming pass over all "
          << (root.NumBlocks() - 1) << " linking predicate(s)\n";
      std::vector<const QueryBlock*> path{&root};
      const QueryBlock* node = &root;
      while (!node->children.empty()) {
        const QueryBlock& child = *node->children[0];
        // Same build-time hints ExecuteFusedLinearDag passes to JoinWithChild
        // at this level (path = the chain prefix above the child).
        oss << "  - level: " << LinkingLabel(child) << " ("
            << (StrictSafe(path) ? "strict" : "pseudo") << ")"
            << JoinStrategySuffix(
                   JoinStrategyFor(child, path, catalog, options))
            << "\n";
        path.push_back(&child);
        node = &child;
      }
    } else {
      oss << "recursive Algorithm 1:\n";
      std::vector<const QueryBlock*> path{&root};
      ExplainNode(root, catalog, options, &path, 1, &oss);
    }
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

  const PlanVerifier verifier(catalog, options);
  const VerifyReport report = verifier.Verify(root);
  oss << "=== Plan verification ===\n" << report.Summary() << "\n";
  if (report.clean()) {
    oss << "clean (0 diagnostics)\n";
  } else {
    oss << report.ToString();
  }
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
  const PlanVerifier verifier(catalog, options);
  const VerifyReport report = verifier.Verify(root);
  oss << "=== Plan verification ===\n" << report.Summary() << "\n";
  if (report.clean()) {
    oss << "clean (0 diagnostics)\n";
  } else {
    oss << report.ToString();
  }
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
