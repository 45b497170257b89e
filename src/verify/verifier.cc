#include "verify/verifier.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/check.h"
#include "verify/properties.h"

namespace nestra {

namespace {

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

// Name-resolution schema over a block's qualified attribute list (types are
// irrelevant for resolution).
Schema SchemaOf(const std::vector<std::string>& attributes) {
  std::vector<Field> fields;
  fields.reserve(attributes.size());
  for (const std::string& a : attributes) fields.emplace_back(a, TypeId::kInt64);
  return Schema(std::move(fields));
}

// True when `name` resolves in some ancestor's attributes (nearest first,
// matching the binder's scope-chain order).
const QueryBlock* ResolveInAncestors(
    const std::string& name, const std::vector<const QueryBlock*>& ancestors) {
  for (auto it = ancestors.rbegin(); it != ancestors.rend(); ++it) {
    if (SchemaOf((*it)->attributes).Resolve(name).ok()) return *it;
  }
  return nullptr;
}

// Strict-safety over an explicit path (root..current), recomputed here
// rather than read from PlanStep::strict_safe: the strict selection may drop
// tuples only when every link on the path (the links of the non-root
// blocks) is positive.
bool PathStrictSafe(const std::vector<const QueryBlock*>& path) {
  for (size_t i = 1; i < path.size(); ++i) {
    if (!path[i]->LinkIsPositive()) return false;
  }
  return true;
}

// Structural form of the §4.2.4 equi-correlation test: every correlated
// predicate is `outer_col = child_col` with the sides resolving exclusively
// on their own side. `ancestors` is root..parent.
bool EquiCorrelationSplit(const QueryBlock& child,
                          const std::vector<const QueryBlock*>& ancestors) {
  if (child.correlated_preds.empty()) return false;
  const Schema own = SchemaOf(child.attributes);
  for (const ExprPtr& p : child.correlated_preds) {
    const auto* cmp = dynamic_cast<const Comparison*>(p.get());
    if (cmp == nullptr || cmp->op() != CmpOp::kEq) return false;
    const auto* l = dynamic_cast<const ColumnRef*>(&cmp->lhs());
    const auto* r = dynamic_cast<const ColumnRef*>(&cmp->rhs());
    if (l == nullptr || r == nullptr) return false;
    const bool l_own = own.Resolve(l->name()).ok();
    const bool r_own = own.Resolve(r->name()).ok();
    const bool l_anc = ResolveInAncestors(l->name(), ancestors) != nullptr;
    const bool r_anc = ResolveInAncestors(r->name(), ancestors) != nullptr;
    if (!(l_anc && !l_own && r_own && !r_anc) &&
        !(r_anc && !r_own && l_own && !l_anc)) {
      return false;
    }
  }
  return true;
}

// All correlated predicates are column = column equalities (the shape the
// executor's AllEquiCorrelation starts from), regardless of how the sides
// split.
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

void AddDiagnostic(VerifyReport* report, VerifySeverity severity, int block_id,
                   const char* rule_id, std::string message) {
  report->Add({severity, block_id, rule_id, std::move(message)});
}

void AddError(VerifyReport* report, int block_id, const char* rule_id,
              std::string message) {
  AddDiagnostic(report, VerifySeverity::kError, block_id, rule_id,
                std::move(message));
}

void AddWarning(VerifyReport* report, int block_id, const char* rule_id,
                std::string message) {
  AddDiagnostic(report, VerifySeverity::kWarning, block_id, rule_id,
                std::move(message));
}

}  // namespace

const char* VerifySeverityToString(VerifySeverity severity) {
  return severity == VerifySeverity::kError ? "error" : "warning";
}

std::string VerifyDiagnostic::ToString() const {
  std::ostringstream oss;
  oss << VerifySeverityToString(severity) << " [" << rule_id << "] block "
      << block_id << ": " << message;
  return oss.str();
}

void VerifyReport::Add(VerifyDiagnostic d) {
  if (d.severity == VerifySeverity::kError) {
    ++num_errors_;
  } else {
    ++num_warnings_;
  }
  ++rule_counts_[d.rule_id];
  diagnostics_.push_back(std::move(d));
}

int VerifyReport::CountRule(const std::string& rule_id) const {
  const auto it = rule_counts_.find(rule_id);
  return it == rule_counts_.end() ? 0 : it->second;
}

std::string VerifyReport::Summary() const {
  std::ostringstream oss;
  oss << "verify: " << verify_rules::kNumRules << " rules, " << num_errors_
      << (num_errors_ == 1 ? " error, " : " errors, ") << num_warnings_
      << (num_warnings_ == 1 ? " warning" : " warnings");
  return oss.str();
}

std::string VerifyReport::ToString() const {
  std::ostringstream oss;
  for (const VerifyDiagnostic& d : diagnostics_) oss << d.ToString() << "\n";
  return oss.str();
}

Status VerifyReport::ToStatus() const {
  if (ok()) return Status::OK();
  std::ostringstream oss;
  oss << "plan verification failed: ";
  bool first = true;
  for (const VerifyDiagnostic& d : diagnostics_) {
    if (d.severity != VerifySeverity::kError) continue;
    if (!first) oss << "; ";
    first = false;
    oss << d.ToString();
  }
  return Status::InvalidArgument(oss.str());
}

VerifyReport PlanVerifier::Verify(const QueryBlock& root,
                                  const PhysicalPlan& plan) const {
  VerifyReport report;

  // Alias uniqueness is global: attribute qualification (and with it every
  // set comparison below) depends on it.
  {
    std::set<std::string> aliases;
    std::vector<const QueryBlock*> stack{&root};
    while (!stack.empty()) {
      const QueryBlock* b = stack.back();
      stack.pop_back();
      for (const QueryBlock::TableRef& ref : b->tables) {
        if (!aliases.insert(ref.alias).second) {
          AddError(&report, b->id, verify_rules::kSchemaResolve,
                   "table alias '" + ref.alias +
                       "' is not unique across the query");
        }
      }
      for (const auto& c : b->children) stack.push_back(c.get());
    }
  }

  std::vector<const QueryBlock*> ancestors;
  CheckTree(root, &ancestors, plan, &report);
  CheckRootOutput(root, &report);

  // §4.2.3: the bottom-up pipeline trusts correlated_block_ids adjacency;
  // cross-check it against the predicates' actual column references.
  if (plan.route == PlanRoute::kBottomUpLinear) {
    for (const PlanStep& step : plan.steps) {
      const QueryBlock& block = *step.child;
      const Schema own = SchemaOf(block.attributes);
      const Schema parent = SchemaOf(step.parent->attributes);
      for (const ExprPtr& p : block.correlated_preds) {
        std::vector<std::string> cols;
        p->CollectColumns(&cols);
        for (const std::string& c : cols) {
          if (!own.Resolve(c).ok() && !parent.Resolve(c).ok()) {
            AddError(&report, block.id, verify_rules::kRewritePrecond,
                     "bottom-up linear pipeline (4.2.3) requires adjacent "
                     "correlation, but column '" +
                         c + "' of block " + std::to_string(block.id) +
                         " resolves in neither the block nor its parent");
          }
        }
      }
    }
  }

  CheckCarried(root, &ancestors, &report);
  CheckOutline(plan.steps, &report);
  return report;
}

void PlanVerifier::CheckTree(const QueryBlock& block,
                             std::vector<const QueryBlock*>* ancestors,
                             const PhysicalPlan& plan,
                             VerifyReport* report) const {
  // --- schema-resolve: the block's attribute list matches its FROM tables.
  bool tables_ok = !block.tables.empty();
  if (block.tables.empty()) {
    AddError(report, block.id, verify_rules::kSchemaResolve,
             "block has no FROM tables");
  }
  std::vector<std::string> expected;
  for (const QueryBlock::TableRef& ref : block.tables) {
    const Result<const Table*> table = catalog_.GetTable(ref.table);
    if (!table.ok()) {
      AddError(report, block.id, verify_rules::kSchemaResolve,
               "table '" + ref.table + "' is not in the catalog");
      tables_ok = false;
      continue;
    }
    const Schema qualified = (*table)->schema().Qualify(ref.alias);
    for (const Field& f : qualified.fields()) expected.push_back(f.name);
  }
  if (tables_ok && expected != block.attributes) {
    AddError(report, block.id, verify_rules::kSchemaResolve,
             "attribute list does not match the qualified schemas of the "
             "block's FROM tables");
  }

  // --- key-survival: the key attribute used for emptiness detection.
  if (block.key_attr.empty()) {
    AddError(report, block.id, verify_rules::kKeySurvival,
             "block has no key attribute; empty-subquery detection via "
             "NULL-padded keys is impossible");
  } else {
    if (!Contains(block.attributes, block.key_attr)) {
      AddError(report, block.id, verify_rules::kKeySurvival,
               "key attribute '" + block.key_attr +
                   "' is not among the block's attributes");
    }
    if (tables_ok) {
      const Result<const TableMetadata*> meta =
          catalog_.GetMetadata(block.tables[0].table);
      if (meta.ok()) {
        const std::string expected_key = (*meta)->primary_key.empty()
            ? std::string()
            : block.tables[0].alias + "." + (*meta)->primary_key;
        if (expected_key.empty()) {
          AddError(report, block.id, verify_rules::kKeySurvival,
                   "first FROM table '" + block.tables[0].table +
                       "' has no declared primary key");
        } else if (block.key_attr != expected_key) {
          AddError(report, block.id, verify_rules::kKeySurvival,
                   "key attribute '" + block.key_attr +
                       "' is not the first table's primary key ('" +
                       expected_key + "')");
        }
      }
    }
  }

  // --- schema-resolve: local predicate columns resolve in the block.
  const Schema own = SchemaOf(block.attributes);
  if (block.local_pred != nullptr) {
    std::vector<std::string> cols;
    block.local_pred->CollectColumns(&cols);
    for (const std::string& c : cols) {
      if (!own.Resolve(c).ok()) {
        AddError(report, block.id, verify_rules::kSchemaResolve,
                 "column '" + c +
                     "' of the local predicate does not resolve in the "
                     "block's schema");
      }
    }
  }

  // --- schema-resolve: correlated predicates resolve, reference at least
  // one ancestor, and agree with the cached correlated_block_ids.
  std::set<int> referenced;
  for (const ExprPtr& p : block.correlated_preds) {
    std::vector<std::string> cols;
    p->CollectColumns(&cols);
    bool touches_ancestor = false;
    for (const std::string& c : cols) {
      if (own.Resolve(c).ok()) continue;  // binder scope order: block first
      const QueryBlock* anc = ResolveInAncestors(c, *ancestors);
      if (anc == nullptr) {
        AddError(report, block.id, verify_rules::kSchemaResolve,
                 "column '" + c +
                     "' of a correlated predicate resolves in neither the "
                     "block nor any ancestor block");
      } else {
        referenced.insert(anc->id);
        touches_ancestor = true;
      }
    }
    if (!touches_ancestor) {
      AddError(report, block.id, verify_rules::kSchemaResolve,
               "correlated predicate references no ancestor block (it "
               "belongs in the local predicate)");
    }
  }
  const std::set<int> cached(block.correlated_block_ids.begin(),
                             block.correlated_block_ids.end());
  if (referenced != cached) {
    AddError(report, block.id, verify_rules::kSchemaResolve,
             "correlated_block_ids do not match the blocks actually "
             "referenced by the correlated predicates");
  }

  if (!ancestors->empty()) {
    CheckLink(block, *ancestors, report);
    CheckLinkProperties(block, *ancestors, report);
    CheckRewritePreconditions(block, *ancestors, plan.StepFor(block), report);
    if (block.correlated_preds.empty() && !block.IsLeaf()) {
      AddWarning(report, block.id, verify_rules::kCartesianProduct,
                 "non-correlated block is not a leaf: its subtree joins "
                 "with the outer relation as a true Cartesian product");
    }
  }

  ancestors->push_back(&block);
  for (const auto& child : block.children) {
    CheckTree(*child, ancestors, plan, report);
  }
  ancestors->pop_back();
}

void PlanVerifier::CheckRootOutput(const QueryBlock& root,
                                   VerifyReport* report) const {
  const Schema own = SchemaOf(root.attributes);
  if (root.select_list.empty()) {
    AddError(report, root.id, verify_rules::kSchemaResolve,
             "root block has an empty select list");
  }
  if (root.IsGrouped()) {
    std::set<std::string> allowed(root.group_by.begin(), root.group_by.end());
    for (const QueryBlock::RootAgg& a : root.aggregates) {
      allowed.insert(a.output_name);
      if (!a.column.empty() && !own.Resolve(a.column).ok()) {
        AddError(report, root.id, verify_rules::kSchemaResolve,
                 "aggregate argument '" + a.column +
                     "' does not resolve in the root block's schema");
      }
    }
    for (const std::string& g : root.group_by) {
      if (!own.Resolve(g).ok()) {
        AddError(report, root.id, verify_rules::kSchemaResolve,
                 "grouping column '" + g +
                     "' does not resolve in the root block's schema");
      }
    }
    for (const std::string& s : root.select_list) {
      if (allowed.count(s) == 0) {
        AddError(report, root.id, verify_rules::kSchemaResolve,
                 "select item '" + s +
                     "' is neither a grouping column nor an aggregate "
                     "output");
      }
    }
    for (const QueryBlock::OrderItem& o : root.order_by) {
      if (allowed.count(o.column) == 0) {
        AddError(report, root.id, verify_rules::kSchemaResolve,
                 "ORDER BY column '" + o.column +
                     "' is neither a grouping column nor an aggregate "
                     "output");
      }
    }
    if (root.having != nullptr) {
      std::vector<std::string> cols;
      root.having->CollectColumns(&cols);
      for (const std::string& c : cols) {
        if (allowed.count(c) == 0) {
          AddError(report, root.id, verify_rules::kSchemaResolve,
                   "HAVING column '" + c +
                       "' is neither a grouping column nor an aggregate "
                       "output");
        }
      }
    }
  } else {
    for (const std::string& s : root.select_list) {
      if (!own.Resolve(s).ok()) {
        AddError(report, root.id, verify_rules::kSchemaResolve,
                 "select item '" + s +
                     "' does not resolve in the root block's schema");
      }
    }
    for (const QueryBlock::OrderItem& o : root.order_by) {
      if (!own.Resolve(o.column).ok()) {
        AddError(report, root.id, verify_rules::kSchemaResolve,
                 "ORDER BY column '" + o.column +
                     "' does not resolve in the root block's schema");
      }
    }
  }
}

void PlanVerifier::CheckLink(const QueryBlock& block,
                             const std::vector<const QueryBlock*>& ancestors,
                             VerifyReport* report) const {
  const Schema own = SchemaOf(block.attributes);
  const auto check_linking_side = [&]() {
    if (block.linking_is_const) return;
    if (block.linking_attr.empty()) {
      AddError(report, block.id, verify_rules::kLinkSchema,
               "link has no outer operand (neither a linking attribute nor "
               "a constant)");
      return;
    }
    if (ResolveInAncestors(block.linking_attr, ancestors) == nullptr) {
      AddError(report, block.id, verify_rules::kLinkSchema,
               "linking attribute '" + block.linking_attr +
                   "' does not resolve in any ancestor block");
    }
  };

  if (block.is_aggregate_link) {
    if (block.linked_attr.empty()) {
      if (block.agg != LinkAgg::kCountStar) {
        AddError(report, block.id, verify_rules::kLinkSchema,
                 "aggregate link has no argument column (only COUNT(*) may "
                 "omit it)");
      }
    } else if (!own.Resolve(block.linked_attr).ok()) {
      AddError(report, block.id, verify_rules::kLinkSchema,
               "aggregate argument '" + block.linked_attr +
                   "' is not an attribute of the block");
    }
    check_linking_side();
    return;
  }

  switch (block.link_op) {
    case LinkOp::kExists:
    case LinkOp::kNotExists:
      // Emptiness testing reads the block's key through the nest.
      if (!block.key_attr.empty() && block.linked_attr != block.key_attr) {
        AddError(report, block.id, verify_rules::kLinkSchema,
                 "EXISTS link must use the block's key attribute '" +
                     block.key_attr + "' as its linked attribute (found '" +
                     block.linked_attr + "')");
      }
      break;
    case LinkOp::kIn:
    case LinkOp::kNotIn:
    case LinkOp::kSome:
    case LinkOp::kAll:
      if (block.linked_attr.empty()) {
        AddError(report, block.id, verify_rules::kLinkSchema,
                 "quantified link has no linked attribute (the subquery's "
                 "select item)");
      } else if (!own.Resolve(block.linked_attr).ok()) {
        AddError(report, block.id, verify_rules::kLinkSchema,
                 "linked attribute '" + block.linked_attr +
                     "' is not an attribute of the block");
      }
      check_linking_side();
      break;
  }
}

void PlanVerifier::CheckLinkProperties(
    const QueryBlock& block, const std::vector<const QueryBlock*>& ancestors,
    VerifyReport* report) const {
  const PropertyAnalyzer analyzer(catalog_);
  const LinkFacts facts = analyzer.AnalyzeLink(block, ancestors);
  if (facts.always_unknown) {
    AddWarning(report, block.id, verify_rules::kNullLinking,
               "linking predicate can only ever evaluate to UNKNOWN (" +
                   facts.reason +
                   "); the link is constant-valued regardless of the data");
  }
  // scalar-card guards the binder's non-aggregate scalar-subquery binding:
  // it is evaluated as `θ SOME`, which silently diverges from SQL scalar
  // semantics if the subquery ever yields two rows — so reject the plan
  // unless the at-most-one bound is provable.
  if (block.is_scalar_link && !analyzer.AtMostOneMember(block)) {
    AddError(report, block.id, verify_rules::kScalarCard,
             "scalar subquery is not provably limited to one row per outer "
             "binding: no key of block " +
                 std::to_string(block.id) +
                 " is pinned by equality predicates; it may yield multiple "
                 "rows at runtime");
  }
}

void PlanVerifier::CheckCarried(const QueryBlock& block,
                                std::vector<const QueryBlock*>* ancestors,
                                VerifyReport* report) const {
  // Subsequence of the attribute list: schema order, no strangers.
  {
    size_t next = 0;
    for (const std::string& c : block.carried) {
      while (next < block.attributes.size() && block.attributes[next] != c) {
        ++next;
      }
      if (next == block.attributes.size()) {
        AddError(report, block.id, verify_rules::kCarriedSet,
                 "carried column '" + c +
                     "' is not an attribute of the block, or is out of "
                     "schema order");
        break;
      }
      ++next;
    }
  }

  // Keys: the block key always; in a multi-table block every table's key
  // (a keyless table: all its columns), so distinct join rows stay
  // distinct in every nest that groups by the carried prefix.
  const auto require = [&](const QueryBlock& owner, const std::string& c,
                           const char* what) {
    if (!Contains(owner.carried, c)) {
      AddError(report, block.id, verify_rules::kCarriedSet,
               std::string(what) + " '" + c + "' is not carried by block " +
                   std::to_string(owner.id));
    }
  };
  if (!block.key_attr.empty()) require(block, block.key_attr, "key attribute");
  if (block.tables.size() > 1) {
    for (const QueryBlock::TableRef& ref : block.tables) {
      const Result<const TableMetadata*> meta =
          catalog_.GetMetadata(ref.table);
      const Result<const Table*> table = catalog_.GetTable(ref.table);
      if (!meta.ok() || !table.ok()) continue;  // schema-resolve reports it
      if (!(*meta)->primary_key.empty()) {
        require(block, ref.alias + "." + (*meta)->primary_key,
                "primary key");
        continue;
      }
      for (const Field& f : (*table)->schema().fields()) {
        require(block, ref.alias + "." + f.name, "column of a keyless table");
      }
    }
  }

  // Reads after the base scans: each column must be carried by the block
  // that owns it — this one or an ancestor on the path. A column no block
  // owns is schema-resolve's to report.
  const auto require_read = [&](const std::string& c, const char* what) {
    if (Contains(block.attributes, c)) {
      require(block, c, what);
    } else if (const QueryBlock* owner = ResolveInAncestors(c, *ancestors)) {
      require(*owner, c, what);
    }
  };
  for (const ExprPtr& p : block.correlated_preds) {
    std::vector<std::string> cols;
    p->CollectColumns(&cols);
    for (const std::string& c : cols) require_read(c, "correlated column");
  }
  if (!block.linking_attr.empty()) {
    require_read(block.linking_attr, "linking attribute");
  }
  if (!block.linked_attr.empty()) {
    require_read(block.linked_attr, "linked attribute");
  }
  if (block.IsRoot()) {
    std::vector<std::string> cols = block.select_list;
    cols.insert(cols.end(), block.group_by.begin(), block.group_by.end());
    for (const QueryBlock::RootAgg& a : block.aggregates) {
      if (!a.column.empty()) cols.push_back(a.column);
    }
    for (const QueryBlock::OrderItem& o : block.order_by) {
      cols.push_back(o.column);
    }
    if (block.having != nullptr) block.having->CollectColumns(&cols);
    // Aggregate output names are not block columns; they never match.
    for (const std::string& c : cols) require_read(c, "root output column");
  }

  ancestors->push_back(&block);
  for (const auto& child : block.children) {
    CheckCarried(*child, ancestors, report);
  }
  ancestors->pop_back();
}

void PlanVerifier::CheckRewritePreconditions(
    const QueryBlock& block, const std::vector<const QueryBlock*>& ancestors,
    const PlanStep* step, VerifyReport* report) const {
  if (step == nullptr) return;
  // §4.2.5 positive-semijoin rewrite: the extra join condition A θ B must
  // be constructible.
  if (step->kind == PlanStepKind::kSemijoin && !block.is_aggregate_link &&
      (block.link_op == LinkOp::kIn || block.link_op == LinkOp::kSome)) {
    if (block.linked_attr.empty()) {
      AddError(report, block.id, verify_rules::kRewritePrecond,
               "positive-semijoin rewrite (4.2.5) needs the link's inner "
               "operand, but the block has no linked attribute");
    }
    if (!block.linking_is_const && block.linking_attr.empty()) {
      AddError(report, block.id, verify_rules::kRewritePrecond,
               "positive-semijoin rewrite (4.2.5) needs the link's outer "
               "operand, but the block has neither a linking attribute "
               "nor a constant");
    }
  }

  // §4.2.4 nest push-down: a candidate whose equality-shaped correlation
  // does not split into outer/inner sides silently falls back to the
  // outer-join plan — worth a warning, not an error.
  if (step->push_down && LooksEquiCorrelated(block) &&
      !EquiCorrelationSplit(block, ancestors)) {
    AddWarning(report, block.id, verify_rules::kRewritePrecond,
               "nest push-down (4.2.4) is enabled and the correlation is "
               "equality-shaped, but it does not split into outer/inner "
               "sides; the executor falls back to the outer-join plan");
  }
}

void PlanVerifier::CheckOutline(const std::vector<PlanStep>& steps,
                                VerifyReport* report) const {
  for (const PlanStep& s : steps) {
    NESTRA_DCHECK(s.parent != nullptr && s.child != nullptr);
    const QueryBlock& child = *s.child;
    const QueryBlock& parent = *s.parent;

    if (s.kind == PlanStepKind::kAntijoin) {
      // The antijoin evaluates a negative link with 2VL member handling and
      // drops failing tuples outright. Sound only on a strict-safe path,
      // and only when the member comparison can never go UNKNOWN.
      if (child.LinkIsPositive() || !PathStrictSafe(s.path)) {
        AddError(report, child.id, verify_rules::kLinkMode,
                 "two-valued antijoin rewrite applies to a negative link on "
                 "a strict-safe path, but the link is positive or an "
                 "enclosing negative linking operator is pending");
      } else if (!NegativeLinkRunsTwoValued(child, s.path, catalog_)) {
        // CheckOutline re-validates the property from first principles
        // rather than trusting the plan builder's decision, so a bug there
        // cannot also blind its checker. (Allowlisted in
        // tools/lint_engine_invariants.py.)
        AddError(report, child.id, verify_rules::kRewritePrecond,
                 "two-valued antijoin rewrite requires a proven two-valued "
                 "member comparison (non-NULL operands), which does not "
                 "hold for the link of block " +
                     std::to_string(child.id));
      }
      continue;
    }

    if (s.kind == PlanStepKind::kSemijoin) {
      // The semijoin drops failing tuples outright — it is a strict
      // selection in disguise and inherits the same soundness condition.
      if (!child.LinkIsPositive() || !PathStrictSafe(s.path)) {
        AddError(report, child.id, verify_rules::kLinkMode,
                 "semijoin rewrite drops failing tuples, but the link (or "
                 "an enclosing link) is negative; the pseudo-selection "
                 "plan is required");
      }
      continue;
    }

    // --- link-mode: strict only where no negative operator is pending.
    const bool negative_pending =
        s.order == PlanStepOrder::kTopDown && !PathStrictSafe(s.path);
    if (s.mode == SelectionMode::kStrict && negative_pending) {
      AddError(report, child.id, verify_rules::kLinkMode,
               "strict selection for the link of block " +
                   std::to_string(child.id) +
                   ", but an enclosing negative linking operator is still "
                   "pending; the pseudo-selection with NULL padding is "
                   "required");
    }
    if (s.mode == SelectionMode::kPseudo && !s.streaming) {
      // A must be exactly the enclosing block's carried attributes (every
      // column of that block the relation still holds), so the padded
      // tuple's key and linked value read as NULL upward.
      if (parent.key_attr.empty() ||
          !Contains(s.pad_attrs, parent.key_attr)) {
        AddError(report, child.id, verify_rules::kKeySurvival,
                 "pseudo-selection pad set for the link of block " +
                     std::to_string(child.id) +
                     " does not include the enclosing block's key "
                     "attribute; padded tuples would be undetectable");
      } else {
        const std::set<std::string> pad(s.pad_attrs.begin(),
                                        s.pad_attrs.end());
        const std::set<std::string> enclosing(parent.carried.begin(),
                                              parent.carried.end());
        if (pad != enclosing) {
          AddError(report, child.id, verify_rules::kLinkMode,
                   "pseudo-selection pad set A must be exactly the "
                   "enclosing block's carried attribute set");
        }
      }
    }

    // --- nest-sets: υ_{N1,N2} well-formedness.
    if (s.nested_attrs.empty()) {
      AddError(report, child.id, verify_rules::kNestSets,
               "nest set N2 is empty: the link has neither a linked "
               "attribute nor a key attribute");
    }
    for (const std::string& a : s.nested_attrs) {
      if (Contains(s.nesting_attrs, a)) {
        AddError(report, child.id, verify_rules::kNestSets,
                 "nest sets N1 and N2 overlap on '" + a + "'");
      }
      if (!a.empty() && !Contains(child.attributes, a)) {
        AddError(report, child.id, verify_rules::kNestSets,
                 "nested attribute '" + a + "' is not an attribute of block " +
                     std::to_string(child.id));
      }
    }
    for (size_t i = 0; i < s.nesting_attrs.size(); ++i) {
      for (size_t j = i + 1; j < s.nesting_attrs.size(); ++j) {
        if (s.nesting_attrs[i] == s.nesting_attrs[j]) {
          AddError(report, child.id, verify_rules::kNestSets,
                   "nest set N1 lists '" + s.nesting_attrs[i] +
                       "' more than once");
        }
      }
    }
    // Closure under the implicit projection onto N1 ∪ N2: the linking
    // selection still needs the outer operand after the nest.
    if (s.kind == PlanStepKind::kNestSelect && !child.linking_is_const &&
        !child.linking_attr.empty() &&
        !Contains(s.nesting_attrs, child.linking_attr)) {
      AddError(report, child.id, verify_rules::kNestSets,
               "linking attribute '" + child.linking_attr +
                   "' does not survive the nest's implicit projection "
                   "(missing from N1)");
    }

    // --- key-survival at the step level.
    if (child.key_attr.empty()) {
      AddError(report, child.id, verify_rules::kKeySurvival,
               "block " + std::to_string(child.id) +
                   " has no key attribute; the linking selection cannot "
                   "distinguish an empty subquery from a padded one");
    } else if (!Contains(s.nested_attrs, child.key_attr)) {
      AddError(report, child.id, verify_rules::kKeySurvival,
               "key attribute '" + child.key_attr + "' of block " +
                   std::to_string(child.id) +
                   " does not survive to the linking selection (missing "
                   "from N2)");
    }
  }
}

}  // namespace nestra
