#include "nra/physical_plan.h"

#include <algorithm>
#include <utility>

#include "nra/planner.h"
#include "verify/properties.h"
#include "verify/verifier.h"

namespace nestra {

namespace {

// N2 of the nest for a child link: (linked attribute, key attribute),
// deduplicated (EXISTS links use the key as the linked attribute; COUNT(*)
// aggregate links have no linked attribute at all).
std::vector<std::string> NestedAttrsFor(const QueryBlock& child) {
  std::vector<std::string> n2;
  if (!child.linked_attr.empty()) n2.push_back(child.linked_attr);
  if (child.key_attr != child.linked_attr) n2.push_back(child.key_attr);
  return n2;
}

// True when dropping failing tuples while computing a predicate at the end
// of `path` (root..current node) cannot erase information an enclosing
// negative predicate still needs: every link on the path (the links of the
// non-root blocks) is positive. The root itself is always strict-safe.
bool StrictSafe(const std::vector<const QueryBlock*>& path) {
  for (size_t i = 1; i < path.size(); ++i) {
    if (!path[i]->LinkIsPositive()) return false;
  }
  return true;
}

StageEstimate Rows(const RelEstimate& rel) {
  return StageEstimate{rel.rows, rel.max_rows};
}

// The estimates a child link's stages read: the child's base, the outer
// relation entering its join, and their left outer join.
struct LinkEstimate {
  StageEstimate base;
  StageEstimate outer;
  StageEstimate joined;
};

class PlanBuilder {
 public:
  PlanBuilder(const Catalog& catalog, const NraOptions& options)
      : catalog_(catalog), options_(options) {}

  PhysicalPlan Build(const QueryBlock& root) {
    const RelEstimate base = EstimateBlockBase(root, catalog_);
    if (base.known) Merge(BlockLabel(root), Rows(base));
    if (root.children.empty()) {
      plan_.route = PlanRoute::kFlat;
    } else {
      plan_.route = options_.bottom_up_linear && root.IsLinearCorrelated()
                        ? PlanRoute::kBottomUpLinear
                        : PlanRoute::kRecursive;
      std::vector<const QueryBlock*> path{&root};
      Walk(root, &path, base, root.carried);
      if (FusedChainApplies(root)) ToFusedChain();
    }
    if (base.known) AddStageEstimates(root, base);
    return std::move(plan_);
  }

 private:
  // Visits `node`'s children in order, estimating each block once and
  // folding the outer relation along the path, and appends one step per
  // link in post-order (a child's own links before its nest).
  void Walk(const QueryBlock& node, std::vector<const QueryBlock*>* path,
            const RelEstimate& outer,
            const std::vector<std::string>& retained) {
    for (const auto& child_ptr : node.children) {
      const QueryBlock& child = *child_ptr;
      const RelEstimate base = EstimateBlockBase(child, catalog_);
      const RelEstimate joined = EstimateOuterJoin(outer, base, child);
      if (joined.known) {
        Merge(BlockLabel(child), Rows(base));
        link_estimates_[&child] = {Rows(base), Rows(outer), Rows(joined)};
      }
      PlanStep step = plan_.route == PlanRoute::kBottomUpLinear
                          ? BottomUpStep(node, child, *path)
                          : TopDownStep(node, child, *path, outer, base,
                                        retained);
      std::vector<std::string> retained_child = retained;
      retained_child.insert(retained_child.end(), child.carried.begin(),
                            child.carried.end());
      path->push_back(&child);
      Walk(child, path, joined, retained_child);
      path->pop_back();
      plan_.steps.push_back(std::move(step));
    }
  }

  // Algorithm 1's way down and up for one link, with the §4.2.4/§4.2.5
  // rewrites and the proven-2VL antijoin where they apply.
  PlanStep TopDownStep(const QueryBlock& node, const QueryBlock& child,
                       const std::vector<const QueryBlock*>& path,
                       const RelEstimate& outer, const RelEstimate& base,
                       const std::vector<std::string>& retained) const {
    PlanStep s;
    s.parent = &node;
    s.child = &child;
    s.path = path;
    s.strict_safe = StrictSafe(path);
    s.mode = s.strict_safe ? SelectionMode::kStrict : SelectionMode::kPseudo;
    if (options_.cost_based) {
      s.hints = ChoosesJoinStrategy(child, outer, base);
    }

    // §4.2.5: a positive leaf link runs as a semijoin when dropping is safe
    // (flag-forced, or cost-gated when the estimated join intermediate is
    // large). Proven-2VL: a negative leaf link whose member comparison can
    // never go UNKNOWN (or NOT EXISTS, which has none) runs as a plain
    // antijoin — bit-identical to nest + pseudo-selection because the path
    // is strict-safe and no member comparison can be UNKNOWN.
    if (child.IsLeaf() && child.LinkIsPositive() && s.strict_safe &&
        (options_.rewrite_positive ||
         (options_.cost_based &&
          CostGatesSemijoinRewrite(child, outer, base)))) {
      s.kind = PlanStepKind::kSemijoin;
      return s;
    }
    if (options_.two_valued &&
        NegativeLinkRunsTwoValued(child, path, catalog_)) {
      s.kind = PlanStepKind::kAntijoin;
      s.mode = SelectionMode::kStrict;
      return s;
    }

    s.nested_attrs = NestedAttrsFor(child);
    s.pad_attrs = node.carried;
    // Non-correlated leaf: the paper's "virtual Cartesian product" — one
    // shared group holding the whole subquery result, no grouping key.
    if (child.IsLeaf() && child.correlated_preds.empty()) {
      s.kind = PlanStepKind::kHashLinkSelect;
      return s;
    }
    s.nesting_attrs = retained;
    s.magic = options_.magic_restriction;
    s.fused = options_.fused;
    s.push_down = child.IsLeaf() &&
                  (options_.push_down_nest ||
                   (options_.cost_based &&
                    CostGatesNestPushDown(child, outer, base)));
    std::vector<CorrelationPair> pairs;
    s.kind = s.push_down && EquiCorrelationPairs(child, &pairs)
                 ? PlanStepKind::kHashLinkSelect
                 : PlanStepKind::kNestSelect;
    return s;
  }

  // §4.2.3: in the bottom-up order only (outer, child) tuples exist when the
  // linking predicate is computed, so the strict selection is always sound:
  // a dropped outer tuple would fail anyway, and padding for an empty child
  // set still happens via the outer join. Each level is a push-down
  // candidate; no hints, no magic restriction, no fused pass.
  PlanStep BottomUpStep(const QueryBlock& node, const QueryBlock& child,
                        const std::vector<const QueryBlock*>& path) const {
    PlanStep s;
    s.parent = &node;
    s.child = &child;
    s.path = path;
    s.order = PlanStepOrder::kBottomUp;
    s.strict_safe = StrictSafe(path);
    s.nesting_attrs = node.carried;
    s.nested_attrs = NestedAttrsFor(child);
    s.push_down = true;
    std::vector<CorrelationPair> pairs;
    s.kind = EquiCorrelationPairs(child, &pairs) ? PlanStepKind::kHashLinkSelect
                                                 : PlanStepKind::kNestSelect;
    return s;
  }

  // The single-sort fused pipeline folds every level of a linear chain into
  // one pass, but bypasses the per-link rewrites: it runs only without the
  // flag-forced ones, when every block is correlated (a non-correlated block
  // would make the wide join a true Cartesian product; the recursive route
  // evaluates it as a virtual one), and when the recursive route would not
  // take a rewrite on the leaf link — the proven-2VL antijoin (the pass
  // would push that link through 3VL member handling) or a cost-gated
  // §4.2.5/§4.2.4 rewrite (the pass would materialize the very join
  // intermediate the gate says to avoid).
  bool FusedChainApplies(const QueryBlock& root) const {
    if (plan_.route != PlanRoute::kRecursive || !options_.fused ||
        !root.IsLinear() || options_.push_down_nest ||
        options_.rewrite_positive) {
      return false;
    }
    const QueryBlock* leaf = &root;
    while (!leaf->children.empty()) {
      leaf = leaf->children[0].get();
      if (leaf->correlated_preds.empty()) return false;
    }
    const PlanStep* step = plan_.StepFor(*leaf);
    return step != nullptr && step->kind == PlanStepKind::kNestSelect;
  }

  // Recasts the recursive steps of a linear chain as the fused pass's
  // levels, root level first: each nests by the carried prefix down to its
  // parent, strict at the root level and pseudo with implicit padding below.
  void ToFusedChain() {
    plan_.route = PlanRoute::kFusedChain;
    std::reverse(plan_.steps.begin(), plan_.steps.end());
    for (size_t k = 0; k < plan_.steps.size(); ++k) {
      PlanStep& s = plan_.steps[k];
      s.streaming = true;
      s.mode = k == 0 ? SelectionMode::kStrict : SelectionMode::kPseudo;
      s.pad_attrs.clear();
      s.push_down = false;
    }
  }

  void Merge(const std::string& label, const StageEstimate& est) {
    StageEstimate& e = plan_.estimates[label];
    e.rows = std::max(e.rows, est.rows);
    e.bound = std::max(e.bound, est.bound);
  }

  // Estimates of the stages the chosen route runs, keyed like the profile's
  // stage labels. A nest groups the join result by the retained outer
  // attributes — at most one group per pre-join outer row — and a
  // selection or link-select only drops (or pads) rows, so those read the
  // outer estimate; semi- and antijoins read the join's, which bounds them.
  void AddStageEstimates(const QueryBlock& root, const RelEstimate& base) {
    for (const PlanStep& s : plan_.steps) {
      const auto it = link_estimates_.find(s.child);
      if (it == link_estimates_.end()) continue;
      const LinkEstimate& e = it->second;
      const std::string bid = "[b" + std::to_string(s.child->id) + "]";
      if (s.kind == PlanStepKind::kSemijoin ||
          s.kind == PlanStepKind::kAntijoin) {
        Merge("join" + bid, e.joined);
        continue;
      }
      if (s.kind == PlanStepKind::kHashLinkSelect || s.push_down) {
        Merge("link-select" + bid, e.outer);
        if (!s.push_down) continue;  // virtual Cartesian product
      }
      if (s.magic) Merge("magic" + bid, e.base);
      Merge("join" + bid, e.joined);
      if (plan_.route == PlanRoute::kFusedChain) continue;
      if (s.fused) {
        Merge("fused" + bid, e.outer);
      } else {
        Merge("nest" + bid, e.outer);
        Merge("select" + bid, e.outer);
      }
    }
    // The fused pipeline nests the whole chain back to the root attributes
    // in one pass: at most one output row per root base row.
    if (plan_.route == PlanRoute::kFusedChain) {
      Merge("fused nest+select", Rows(base));
    }
    // Root finish: ordering/projection/distinct/limit never add rows.
    StageEstimate finish{base.rows, std::max(base.max_rows, 1.0)};
    if (root.IsGrouped() && root.group_by.empty()) {
      finish.rows = 1.0;  // global aggregate: exactly one row
    }
    if (root.limit >= 0) {
      const double limit = static_cast<double>(root.limit);
      finish.rows = std::min(finish.rows, limit);
      finish.bound = std::min(finish.bound, limit);
    }
    Merge("finish", finish);
  }

  const Catalog& catalog_;
  const NraOptions& options_;
  PhysicalPlan plan_;
  std::map<const QueryBlock*, LinkEstimate> link_estimates_;
};

}  // namespace

PhysicalPlan BuildPhysicalPlan(const QueryBlock& root, const Catalog& catalog,
                               const NraOptions& options) {
  return PlanBuilder(catalog, options).Build(root);
}

Status VerifyPlan(const QueryBlock& root, const Catalog& catalog,
                  const NraOptions& options) {
  return PlanVerifier(catalog)
      .Verify(root, BuildPhysicalPlan(root, catalog, options))
      .ToStatus();
}

}  // namespace nestra
