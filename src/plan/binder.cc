#include "plan/binder.h"

#include <algorithm>
#include <functional>
#include <set>

#include "common/date.h"
#include "sql/parser.h"

namespace nestra {

namespace {

/// One enclosing block during binding: the block being built plus the
/// concatenated qualified schema of its FROM tables.
struct BlockScope {
  QueryBlock* block;
  Schema schema;
};

struct ResolvedColumn {
  std::string qualified_name;
  TypeId type;
  int block_id;
};

// Parameter numbers are bounded so a typo like $999999999 cannot balloon
// the slot vector.
constexpr int kMaxParamIndex = 256;

class Binder {
 public:
  explicit Binder(const Catalog& catalog, ParamBinding* params = nullptr)
      : catalog_(catalog), params_(params) {}

  Result<QueryBlockPtr> Bind(const AstSelect& ast) {
    std::vector<BlockScope*> chain;
    return BindBlock(ast, &chain);
  }

 private:
  // `chain` lists enclosing scopes innermost-first; BindBlock pushes its own
  // scope while binding the block's WHERE clause and children.
  Result<QueryBlockPtr> BindBlock(const AstSelect& ast,
                                  std::vector<BlockScope*>* chain) {
    if (ast.from.empty()) {
      return Status::BindError("FROM clause must name at least one table");
    }
    auto block = std::make_unique<QueryBlock>();
    block->id = ++next_id_;
    block->distinct = ast.distinct;

    Schema schema;
    for (const AstTableRef& ref : ast.from) {
      NESTRA_ASSIGN_OR_RETURN(const Table* table,
                              catalog_.GetTable(ref.table));
      const std::string alias = ref.effective_alias();
      if (!used_aliases_.insert(alias).second) {
        return Status::BindError(
            "alias '" + alias +
            "' used more than once; alias repeated tables explicitly");
      }
      block->tables.push_back({ref.table, alias});
      schema = Schema::Concat(schema, table->schema().Qualify(alias));
    }
    for (const Field& f : schema.fields()) {
      block->attributes.push_back(f.name);
    }

    // Key attribute: the first table's primary key.
    {
      const QueryBlock::TableRef& first = block->tables[0];
      NESTRA_ASSIGN_OR_RETURN(const TableMetadata* meta,
                              catalog_.GetMetadata(first.table));
      if (meta->primary_key.empty()) {
        return Status::BindError(
            "table '" + first.table +
            "' has no primary key; the nested relational approach requires a "
            "unique non-null attribute per relation (register one)");
      }
      block->key_attr = first.alias + "." + meta->primary_key;
    }

    BlockScope scope{block.get(), schema};
    chain->insert(chain->begin(), &scope);

    // WHERE clause.
    if (ast.where != nullptr) {
      std::vector<const AstCond*> conjuncts;
      FlattenAnd(*ast.where, &conjuncts);
      std::vector<ExprPtr> local;
      for (const AstCond* c : conjuncts) {
        if (IsSubqueryCond(*c)) {
          NESTRA_RETURN_NOT_OK(BindSubqueryConjunct(*c, chain, block.get()));
          continue;
        }
        std::set<int> refs;
        NESTRA_ASSIGN_OR_RETURN(ExprPtr bound, BindCond(*c, *chain, &refs));
        refs.erase(block->id);
        if (refs.empty()) {
          local.push_back(std::move(bound));
        } else {
          block->correlated_preds.push_back(std::move(bound));
          for (int r : refs) {
            if (std::find(block->correlated_block_ids.begin(),
                          block->correlated_block_ids.end(),
                          r) == block->correlated_block_ids.end()) {
              block->correlated_block_ids.push_back(r);
            }
          }
        }
      }
      if (!local.empty()) block->local_pred = MakeAnd(std::move(local));
      std::sort(block->correlated_block_ids.begin(),
                block->correlated_block_ids.end());
    }

    // Select list / GROUP BY / HAVING.
    const bool is_root = chain->size() == 1;
    const bool grouped =
        ast.HasAggregates() || !ast.group_by.empty() || ast.having != nullptr;
    if (ast.select_star) {
      if (grouped) {
        return Status::BindError(
            "SELECT * cannot be combined with GROUP BY / HAVING / "
            "aggregates");
      }
      block->select_list = block->attributes;
    } else if (!is_root && ast.IsSingleAggregate() && ast.group_by.empty() &&
               ast.having == nullptr) {
      // Scalar subquery: resolve the aggregate's argument; the parent reads
      // it through linked_attr (COUNT(*) leaves it empty).
      if (ast.items[0].agg != LinkAgg::kCountStar) {
        NESTRA_ASSIGN_OR_RETURN(int idx,
                                scope.schema.Resolve(ast.items[0].column));
        block->select_list.push_back(scope.schema.field(idx).name);
      }
    } else if (grouped) {
      if (!is_root) {
        return Status::BindError(
            "GROUP BY / HAVING / multi-item aggregate select lists are only "
            "supported on the outermost query");
      }
      NESTRA_RETURN_NOT_OK(BindGroupedRoot(ast, scope, block.get()));
    } else {
      for (const AstSelectItem& item : ast.items) {
        NESTRA_ASSIGN_OR_RETURN(int idx, scope.schema.Resolve(item.column));
        block->select_list.push_back(scope.schema.field(idx).name);
      }
    }

    // ORDER BY / LIMIT: outermost query only (a subquery's ordering would
    // be meaningless for the linking predicates).
    if (!ast.order_by.empty() || ast.limit >= 0) {
      if (!is_root) {
        return Status::BindError(
            "ORDER BY / LIMIT are only supported on the outermost query");
      }
      for (const AstOrderItem& item : ast.order_by) {
        NESTRA_ASSIGN_OR_RETURN(int idx, scope.schema.Resolve(item.column));
        const std::string qualified = scope.schema.field(idx).name;
        if (block->IsGrouped() &&
            std::find(block->group_by.begin(), block->group_by.end(),
                      qualified) == block->group_by.end()) {
          return Status::BindError(
              "ORDER BY in a grouped query must use grouping columns");
        }
        block->order_by.push_back({qualified, item.ascending});
      }
      block->limit = ast.limit;
    }

    chain->erase(chain->begin());
    return block;
  }

  // Binds the grouped-root pieces: GROUP BY columns, the aggregate select
  // items (plus any extra aggregates HAVING needs), the non-aggregate
  // select items (which must be grouping columns), and the HAVING predicate
  // over the post-aggregation schema.
  Status BindGroupedRoot(const AstSelect& ast, const BlockScope& scope,
                         QueryBlock* block) {
    for (const std::string& g : ast.group_by) {
      NESTRA_ASSIGN_OR_RETURN(int idx, scope.schema.Resolve(g));
      block->group_by.push_back(scope.schema.field(idx).name);
    }

    // Registers an aggregate (deduplicated) and returns its output name.
    auto add_agg = [&](LinkAgg func,
                       const std::string& arg) -> Result<std::string> {
      std::string qualified;
      if (func != LinkAgg::kCountStar) {
        NESTRA_ASSIGN_OR_RETURN(int idx, scope.schema.Resolve(arg));
        qualified = scope.schema.field(idx).name;
      }
      const std::string name =
          func == LinkAgg::kCountStar
              ? "count(*)"
              : std::string(LinkAggToString(func)) + "(" + qualified + ")";
      for (const QueryBlock::RootAgg& a : block->aggregates) {
        if (a.output_name == name) return name;
      }
      block->aggregates.push_back({func, qualified, name});
      return name;
    };

    for (const AstSelectItem& item : ast.items) {
      if (item.is_agg) {
        NESTRA_ASSIGN_OR_RETURN(std::string name,
                                add_agg(item.agg, item.column));
        block->select_list.push_back(std::move(name));
      } else {
        NESTRA_ASSIGN_OR_RETURN(int idx, scope.schema.Resolve(item.column));
        const std::string qualified = scope.schema.field(idx).name;
        if (std::find(block->group_by.begin(), block->group_by.end(),
                      qualified) == block->group_by.end()) {
          return Status::BindError("column " + qualified +
                                   " must appear in GROUP BY or inside an "
                                   "aggregate");
        }
        block->select_list.push_back(qualified);
      }
    }

    if (ast.having != nullptr) {
      NESTRA_ASSIGN_OR_RETURN(block->having,
                              BindHaving(*ast.having, scope, block, add_agg));
    }
    return Status::OK();
  }

  // HAVING predicate: operands are grouping columns, literals, or aggregate
  // calls; the produced expression binds against the post-aggregation
  // schema (grouping columns by qualified name, aggregates by output name).
  template <typename AddAgg>
  Result<ExprPtr> BindHaving(const AstCond& c, const BlockScope& scope,
                             QueryBlock* block, AddAgg& add_agg) {
    std::function<Result<ExprPtr>(const AstOperand&)> operand =
        [&](const AstOperand& o) -> Result<ExprPtr> {
      if (o.is_arith) {
        NESTRA_ASSIGN_OR_RETURN(ExprPtr l, operand(*o.lhs));
        NESTRA_ASSIGN_OR_RETURN(ExprPtr r, operand(*o.rhs));
        return Arith(o.arith_op, std::move(l), std::move(r));
      }
      if (o.is_agg) {
        NESTRA_ASSIGN_OR_RETURN(std::string name, add_agg(o.agg, o.column));
        return Col(std::move(name));
      }
      if (o.is_column) {
        NESTRA_ASSIGN_OR_RETURN(int idx, scope.schema.Resolve(o.column));
        const std::string qualified = scope.schema.field(idx).name;
        if (std::find(block->group_by.begin(), block->group_by.end(),
                      qualified) == block->group_by.end()) {
          return Status::BindError("HAVING column " + qualified +
                                   " must appear in GROUP BY or inside an "
                                   "aggregate");
        }
        return Col(qualified);
      }
      if (o.is_param) return BindParam(o);
      return Lit(o.literal);
    };
    switch (c.kind) {
      case AstCond::Kind::kAnd:
      case AstCond::Kind::kOr: {
        std::vector<ExprPtr> children;
        for (const AstCondPtr& child : c.children) {
          NESTRA_ASSIGN_OR_RETURN(ExprPtr e,
                                  BindHaving(*child, scope, block, add_agg));
          children.push_back(std::move(e));
        }
        return c.kind == AstCond::Kind::kAnd ? MakeAnd(std::move(children))
                                             : MakeOr(std::move(children));
      }
      case AstCond::Kind::kNot: {
        NESTRA_ASSIGN_OR_RETURN(
            ExprPtr e, BindHaving(*c.children[0], scope, block, add_agg));
        return MakeNot(std::move(e));
      }
      case AstCond::Kind::kCompare: {
        NESTRA_ASSIGN_OR_RETURN(ExprPtr lhs, operand(c.lhs));
        NESTRA_ASSIGN_OR_RETURN(ExprPtr rhs, operand(c.rhs));
        return Cmp(c.op, std::move(lhs), std::move(rhs));
      }
      case AstCond::Kind::kIsNull: {
        NESTRA_ASSIGN_OR_RETURN(ExprPtr lhs, operand(c.lhs));
        return c.negated ? IsNotNull(std::move(lhs))
                         : IsNull(std::move(lhs));
      }
      default:
        return Status::BindError(
            "subqueries are not supported in HAVING clauses");
    }
  }

  static bool IsSubqueryCond(const AstCond& c) {
    return c.kind == AstCond::Kind::kExistsSubquery ||
           c.kind == AstCond::Kind::kInSubquery ||
           c.kind == AstCond::Kind::kQuantifiedSubquery ||
           c.kind == AstCond::Kind::kScalarSubquery;
  }

  static void FlattenAnd(const AstCond& c,
                         std::vector<const AstCond*>* out) {
    if (c.kind == AstCond::Kind::kAnd) {
      for (const AstCondPtr& child : c.children) FlattenAnd(*child, out);
    } else {
      out->push_back(&c);
    }
  }

  Status BindSubqueryConjunct(const AstCond& c,
                              std::vector<BlockScope*>* chain,
                              QueryBlock* parent) {
    // Linking operator.
    LinkOp op = LinkOp::kExists;
    CmpOp cmp = CmpOp::kEq;
    bool is_aggregate = false;
    bool is_scalar = false;
    switch (c.kind) {
      case AstCond::Kind::kExistsSubquery:
        op = c.negated ? LinkOp::kNotExists : LinkOp::kExists;
        break;
      case AstCond::Kind::kInSubquery:
        op = c.negated ? LinkOp::kNotIn : LinkOp::kIn;
        break;
      case AstCond::Kind::kQuantifiedSubquery:
        op = c.quant == Quantifier::kAll ? LinkOp::kAll : LinkOp::kSome;
        cmp = c.op;
        break;
      case AstCond::Kind::kScalarSubquery:
        if (c.subquery->IsSingleAggregate()) {
          is_aggregate = true;
        } else {
          // Non-aggregate scalar subquery `A θ (SELECT B ...)`: bound as
          // `A θ SOME` plus is_scalar_link. Equivalent in conjunct position
          // when the subquery yields at most one row (empty set: the SQL
          // comparison is UNKNOWN, SOME is FALSE — both drop the tuple);
          // the verifier's scalar-card rule rejects plans where the
          // at-most-one bound is not statically provable.
          op = LinkOp::kSome;
          is_scalar = true;
        }
        cmp = c.op;
        break;
      default:
        return Status::Internal("not a subquery conjunct");
    }
    if (!is_aggregate && c.subquery->HasAggregates()) {
      return Status::BindError(
          "an aggregate subquery may only be compared with a scalar "
          "comparison operator");
    }

    // Linking side (outer), resolved in the current scope chain — or a
    // constant ("0 = (select count(*) ...)").
    std::string linking_attr;
    bool linking_is_const = false;
    Value linking_const;
    if (c.kind != AstCond::Kind::kExistsSubquery) {
      if (c.lhs.is_param) {
        // The linking constant feeds plan-shape decisions (e.g. the count
        // bound of "0 = (select count(*) ...)"), so it must be known at
        // prepare time; a parameter there would silently pick a wrong plan.
        return Status::BindError(
            "a parameter cannot be the left side of a subquery predicate; "
            "use a literal");
      }
      if (c.lhs.is_column) {
        NESTRA_ASSIGN_OR_RETURN(ResolvedColumn rc,
                                ResolveColumn(c.lhs.column, *chain));
        linking_attr = rc.qualified_name;
      } else if (!c.lhs.is_arith && !c.lhs.is_agg) {
        linking_is_const = true;
        linking_const = c.lhs.literal;
      } else {
        return Status::BindError(
            "the left side of a subquery predicate must be a column or a "
            "constant");
      }
    }

    NESTRA_ASSIGN_OR_RETURN(QueryBlockPtr child, BindBlock(*c.subquery, chain));
    child->link_op = op;
    child->link_cmp = cmp;
    child->linking_attr = std::move(linking_attr);
    child->linking_is_const = linking_is_const;
    child->linking_const = std::move(linking_const);
    child->is_aggregate_link = is_aggregate;
    child->is_scalar_link = is_scalar;

    // Linked attribute: the subquery's single select item, resolved within
    // the child only.
    if (is_aggregate) {
      child->agg = c.subquery->items[0].agg;
      // BindBlock resolved the aggregate's argument into select_list
      // (COUNT(*) leaves it empty).
      child->linked_attr =
          child->select_list.empty() ? "" : child->select_list[0];
    } else if (c.kind == AstCond::Kind::kExistsSubquery) {
      // EXISTS ignores the select list; emptiness uses the child's key.
      child->linked_attr = child->key_attr;
    } else {
      if (child->select_list.size() != 1) {
        return Status::BindError(
            "subquery of IN/ALL/ANY must select exactly one column");
      }
      child->linked_attr = child->select_list[0];
    }
    parent->children.push_back(std::move(child));
    return Status::OK();
  }

  Result<ResolvedColumn> ResolveColumn(const std::string& name,
                                       const std::vector<BlockScope*>& chain) {
    for (const BlockScope* scope : chain) {
      const Result<int> idx = scope->schema.Resolve(name);
      if (idx.ok()) {
        const Field& f = scope->schema.field(*idx);
        return ResolvedColumn{f.name, f.type, scope->block->id};
      }
      if (idx.status().code() == StatusCode::kBindError) {
        return idx.status();  // ambiguous within one scope: hard error
      }
    }
    return Status::BindError("column not found in any enclosing scope: " +
                             name);
  }

  struct BoundOperand {
    ExprPtr expr;
    bool is_column;
    TypeId type;       // column type (is_column only)
    bool is_string_literal;
    std::string text;  // literal text for date coercion
    bool is_param = false;
    int param_slot = 0;  // 0-based (is_param only)
  };

  // Creates the shared-slot ParamExpr for `$n` and records the statement's
  // parameter count. Outside a PREPARE (no ParamBinding) placeholders are a
  // hard bind error rather than a silently-NULL value.
  Result<ExprPtr> BindParam(const AstOperand& o) {
    if (params_ == nullptr) {
      return Status::BindError(
          "parameter $" + std::to_string(o.param_index) +
          " is only allowed in a PREPAREd statement");
    }
    if (o.param_index > kMaxParamIndex) {
      return Status::BindError(
          "parameter $" + std::to_string(o.param_index) +
          " exceeds the maximum of $" + std::to_string(kMaxParamIndex));
    }
    params_->count = std::max(params_->count, o.param_index);
    return ExprPtr(std::make_unique<ParamExpr>(o.param_index - 1,
                                               params_->slots));
  }

  Result<BoundOperand> BindOperand(const AstOperand& o,
                                   const std::vector<BlockScope*>& chain,
                                   std::set<int>* refs) {
    BoundOperand out;
    if (o.is_arith) {
      NESTRA_ASSIGN_OR_RETURN(BoundOperand l, BindOperand(*o.lhs, chain, refs));
      NESTRA_ASSIGN_OR_RETURN(BoundOperand r, BindOperand(*o.rhs, chain, refs));
      out.expr = Arith(o.arith_op, std::move(l.expr), std::move(r.expr));
      out.is_column = false;
      out.is_string_literal = false;
      return out;
    }
    if (o.is_agg) {
      return Status::BindError(
          "aggregate calls are only allowed in HAVING clauses");
    }
    if (o.is_column) {
      NESTRA_ASSIGN_OR_RETURN(ResolvedColumn rc, ResolveColumn(o.column, chain));
      refs->insert(rc.block_id);
      out.expr = Col(rc.qualified_name);
      out.is_column = true;
      out.type = rc.type;
      out.is_string_literal = false;
      return out;
    }
    if (o.is_param) {
      NESTRA_ASSIGN_OR_RETURN(out.expr, BindParam(o));
      out.is_column = false;
      out.is_string_literal = false;
      out.is_param = true;
      out.param_slot = o.param_index - 1;
      return out;
    }
    out.expr = Lit(o.literal);
    out.is_column = false;
    out.is_string_literal = o.literal.is_string();
    if (out.is_string_literal) out.text = o.literal.string();
    return out;
  }

  Result<ExprPtr> BindCond(const AstCond& c,
                           const std::vector<BlockScope*>& chain,
                           std::set<int>* refs) {
    switch (c.kind) {
      case AstCond::Kind::kAnd:
      case AstCond::Kind::kOr: {
        std::vector<ExprPtr> children;
        for (const AstCondPtr& child : c.children) {
          if (IsSubqueryCond(*child)) {
            return Status::BindError(
                "subquery predicates are only supported as top-level WHERE "
                "conjuncts (not under OR)");
          }
          NESTRA_ASSIGN_OR_RETURN(ExprPtr e, BindCond(*child, chain, refs));
          children.push_back(std::move(e));
        }
        return c.kind == AstCond::Kind::kAnd ? MakeAnd(std::move(children))
                                             : MakeOr(std::move(children));
      }
      case AstCond::Kind::kNot: {
        if (IsSubqueryCond(*c.children[0])) {
          return Status::BindError(
              "subquery predicates are only supported as top-level WHERE "
              "conjuncts (not under NOT)");
        }
        NESTRA_ASSIGN_OR_RETURN(ExprPtr e, BindCond(*c.children[0], chain, refs));
        return MakeNot(std::move(e));
      }
      case AstCond::Kind::kCompare: {
        NESTRA_ASSIGN_OR_RETURN(BoundOperand lhs, BindOperand(c.lhs, chain, refs));
        NESTRA_ASSIGN_OR_RETURN(BoundOperand rhs, BindOperand(c.rhs, chain, refs));
        if (lhs.is_string_literal && rhs.is_column &&
            rhs.type == TypeId::kDate) {
          NESTRA_ASSIGN_OR_RETURN(int64_t days, ParseDate(lhs.text));
          lhs.expr = Lit(Value::Date(days));
        }
        if (rhs.is_string_literal && lhs.is_column &&
            lhs.type == TypeId::kDate) {
          NESTRA_ASSIGN_OR_RETURN(int64_t days, ParseDate(rhs.text));
          rhs.expr = Lit(Value::Date(days));
        }
        // A parameter compared against a date column cannot be coerced here
        // (its value arrives at EXECUTE time); record the slot so the
        // session layer date-coerces string arguments then.
        if (lhs.is_param && rhs.is_column && rhs.type == TypeId::kDate) {
          params_->date_params.insert(lhs.param_slot);
        }
        if (rhs.is_param && lhs.is_column && lhs.type == TypeId::kDate) {
          params_->date_params.insert(rhs.param_slot);
        }
        return Cmp(c.op, std::move(lhs.expr), std::move(rhs.expr));
      }
      case AstCond::Kind::kIsNull: {
        NESTRA_ASSIGN_OR_RETURN(BoundOperand lhs, BindOperand(c.lhs, chain, refs));
        return c.negated ? IsNotNull(std::move(lhs.expr))
                         : IsNull(std::move(lhs.expr));
      }
      default:
        return Status::Internal("unexpected condition kind in BindCond");
    }
  }

  const Catalog& catalog_;
  ParamBinding* params_;  // null outside PREPARE
  std::set<std::string> used_aliases_;
  int next_id_ = 0;
};

// Every column anything after a base evaluation reads, over the whole
// query: correlated predicates, linking / linked / key attributes, and the
// root's output columns. Aliases are unique across the query, so one set
// serves every block.
void CollectReadColumns(const QueryBlock& block, std::set<std::string>* read) {
  for (const ExprPtr& p : block.correlated_preds) {
    std::vector<std::string> cols;
    p->CollectColumns(&cols);
    read->insert(cols.begin(), cols.end());
  }
  if (!block.linking_attr.empty()) read->insert(block.linking_attr);
  if (!block.linked_attr.empty()) read->insert(block.linked_attr);
  read->insert(block.key_attr);
  if (block.IsRoot()) {
    read->insert(block.select_list.begin(), block.select_list.end());
    read->insert(block.group_by.begin(), block.group_by.end());
    for (const QueryBlock::RootAgg& a : block.aggregates) {
      if (!a.column.empty()) read->insert(a.column);
    }
    for (const QueryBlock::OrderItem& o : block.order_by) {
      read->insert(o.column);
    }
    if (block.having != nullptr) {
      std::vector<std::string> cols;
      block.having->CollectColumns(&cols);
      read->insert(cols.begin(), cols.end());
    }
  }
  for (const auto& c : block.children) CollectReadColumns(*c, read);
}

// Fills QueryBlock::carried for `block` and its subtree. A multi-table block
// also keeps every table's primary key, so distinct join rows stay distinct
// under the nest; a keyless table there keeps all its columns.
Status AssignCarried(QueryBlock* block, const std::set<std::string>& read,
                     const Catalog& catalog) {
  std::set<std::string> keep;
  if (block->tables.size() > 1) {
    for (const QueryBlock::TableRef& ref : block->tables) {
      NESTRA_ASSIGN_OR_RETURN(const TableMetadata* meta,
                              catalog.GetMetadata(ref.table));
      if (!meta->primary_key.empty()) {
        keep.insert(ref.alias + "." + meta->primary_key);
        continue;
      }
      NESTRA_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(ref.table));
      for (const Field& f : table->schema().fields()) {
        keep.insert(ref.alias + "." + f.name);
      }
    }
  }
  block->carried.clear();
  for (const std::string& a : block->attributes) {
    if (read.count(a) > 0 || keep.count(a) > 0) block->carried.push_back(a);
  }
  for (const auto& c : block->children) {
    NESTRA_RETURN_NOT_OK(AssignCarried(c.get(), read, catalog));
  }
  return Status::OK();
}

}  // namespace

Result<QueryBlockPtr> BindQuery(const AstSelect& ast, const Catalog& catalog,
                                ParamBinding* params) {
  Binder binder(catalog, params);
  NESTRA_ASSIGN_OR_RETURN(QueryBlockPtr block, binder.Bind(ast));
  std::set<std::string> read;
  CollectReadColumns(*block, &read);
  NESTRA_RETURN_NOT_OK(AssignCarried(block.get(), read, catalog));
  return block;
}

Result<QueryBlockPtr> ParseAndBind(const std::string& sql,
                                   const Catalog& catalog) {
  NESTRA_ASSIGN_OR_RETURN(AstSelectPtr ast, ParseSelect(sql));
  return BindQuery(*ast, catalog);
}

}  // namespace nestra
