#include "baseline/nested_iteration.h"

#include "storage/io_sim.h"

#include "exec/distinct.h"
#include "exec/project.h"
#include "nra/planner.h"
#include "plan/binder.h"

namespace nestra {

namespace {

// Finds an equality-correlated pair (ctx column, block column) usable as an
// index probe: block must be single-table and the block column must belong
// to it.
bool FindIndexProbe(const QueryBlock& block, const Schema& ctx_schema,
                    const Schema& block_schema, std::string* ctx_col,
                    std::string* block_col) {
  if (block.tables.size() != 1) return false;
  for (const ExprPtr& p : block.correlated_preds) {
    const auto* cmp = dynamic_cast<const Comparison*>(p.get());
    if (cmp == nullptr || cmp->op() != CmpOp::kEq) continue;
    const auto* l = dynamic_cast<const ColumnRef*>(&cmp->lhs());
    const auto* r = dynamic_cast<const ColumnRef*>(&cmp->rhs());
    if (l == nullptr || r == nullptr) continue;
    const bool l_ctx = ctx_schema.Resolve(l->name()).ok();
    const bool r_blk = block_schema.Resolve(r->name()).ok();
    const bool r_ctx = ctx_schema.Resolve(r->name()).ok();
    const bool l_blk = block_schema.Resolve(l->name()).ok();
    if (l_ctx && !l_blk && r_blk && !r_ctx) {
      *ctx_col = l->name();
      *block_col = r->name();
      return true;
    }
    if (r_ctx && !r_blk && l_blk && !l_ctx) {
      *ctx_col = r->name();
      *block_col = l->name();
      return true;
    }
  }
  return false;
}

// Like FindIndexProbe but for range correlation: finds `block_col theta
// ctx_col` (either orientation) with theta an inequality usable by a
// B+-tree probe (kNe excluded: it selects nearly everything).
bool FindBTreeProbe(const QueryBlock& block, const Schema& ctx_schema,
                    const Schema& block_schema, std::string* ctx_col,
                    std::string* block_col, CmpOp* op) {
  if (block.tables.size() != 1) return false;
  for (const ExprPtr& p : block.correlated_preds) {
    const auto* cmp = dynamic_cast<const Comparison*>(p.get());
    if (cmp == nullptr || cmp->op() == CmpOp::kEq || cmp->op() == CmpOp::kNe) {
      continue;
    }
    const auto* l = dynamic_cast<const ColumnRef*>(&cmp->lhs());
    const auto* r = dynamic_cast<const ColumnRef*>(&cmp->rhs());
    if (l == nullptr || r == nullptr) continue;
    const bool l_ctx = ctx_schema.Resolve(l->name()).ok();
    const bool r_blk = block_schema.Resolve(r->name()).ok();
    const bool r_ctx = ctx_schema.Resolve(r->name()).ok();
    const bool l_blk = block_schema.Resolve(l->name()).ok();
    if (l_blk && !l_ctx && r_ctx && !r_blk) {
      // block_col theta ctx_col: probe with theta as-is.
      *block_col = l->name();
      *ctx_col = r->name();
      *op = cmp->op();
      return true;
    }
    if (l_ctx && !l_blk && r_blk && !r_ctx) {
      // ctx_col theta block_col  ==  block_col flip(theta) ctx_col.
      *ctx_col = l->name();
      *block_col = r->name();
      *op = FlipCmpOp(cmp->op());
      return true;
    }
  }
  return false;
}

}  // namespace

Result<std::unique_ptr<NestedIterationExecutor::BlockRt>>
NestedIterationExecutor::Prepare(const QueryBlock& block,
                                 const Schema& ctx_schema) {
  auto rt = std::make_unique<BlockRt>();
  rt->block = &block;
  rt->ctx_schema = ctx_schema;
  for (const QueryBlock::TableRef& ref : block.tables) {
    NESTRA_ASSIGN_OR_RETURN(const Table* table, catalog_.GetTable(ref.table));
    rt->block_schema = Schema::Concat(rt->block_schema,
                                      table->schema().Qualify(ref.alias));
  }
  const Schema combined = Schema::Concat(ctx_schema, rt->block_schema);

  std::string ctx_col, block_col;
  CmpOp btree_op = CmpOp::kLt;
  const bool hash_probe =
      options_.use_indexes && !block.IsRoot() &&
      FindIndexProbe(block, ctx_schema, rt->block_schema, &ctx_col,
                     &block_col);
  const bool btree_probe =
      !hash_probe && options_.use_indexes && !block.IsRoot() &&
      FindBTreeProbe(block, ctx_schema, rt->block_schema, &ctx_col,
                     &block_col, &btree_op);
  if (hash_probe || btree_probe) {
    rt->use_index = true;
    NESTRA_ASSIGN_OR_RETURN(rt->base_table,
                            catalog_.GetTable(block.tables[0].table));
    if (hash_probe) {
      NESTRA_ASSIGN_OR_RETURN(
          rt->index, catalog_.GetHashIndex(block.tables[0].table,
                                           UnqualifiedName(block_col)));
    } else {
      NESTRA_ASSIGN_OR_RETURN(
          rt->btree, catalog_.GetBTreeIndex(block.tables[0].table,
                                            UnqualifiedName(block_col)));
      rt->btree_op = btree_op;
    }
    NESTRA_ASSIGN_OR_RETURN(rt->probe_ctx_idx, ctx_schema.Resolve(ctx_col));
    // Index path reads raw base rows: the residual must re-check the local
    // predicate as well as every correlated predicate.
    std::vector<ExprPtr> conjuncts;
    for (const ExprPtr& p : block.correlated_preds) {
      conjuncts.push_back(p->Clone());
    }
    if (block.local_pred != nullptr) conjuncts.push_back(block.local_pred->Clone());
    NESTRA_ASSIGN_OR_RETURN(
        rt->residual,
        BoundPredicate::MakeOwned(MakeAnd(std::move(conjuncts)), combined));
  } else {
    // Full width: the oracle never depends on the NRA's carried sets.
    NESTRA_ASSIGN_OR_RETURN(rt->filtered,
                            EvalBlockBase(block, catalog_, block.attributes));
    std::vector<ExprPtr> conjuncts;
    for (const ExprPtr& p : block.correlated_preds) {
      conjuncts.push_back(p->Clone());
    }
    NESTRA_ASSIGN_OR_RETURN(
        rt->residual,
        BoundPredicate::MakeOwned(MakeAnd(std::move(conjuncts)), combined));
  }

  if (!block.IsRoot()) {
    rt->pred = block.MakeLinkPredicate("");
    if ((rt->pred.kind == LinkingPredicate::Kind::kQuantified ||
         rt->pred.kind == LinkingPredicate::Kind::kAggregate) &&
        !rt->pred.linking_is_const) {
      NESTRA_ASSIGN_OR_RETURN(rt->linking_ctx_idx,
                              ctx_schema.Resolve(block.linking_attr));
    }
    if (rt->pred.kind == LinkingPredicate::Kind::kQuantified ||
        rt->pred.kind == LinkingPredicate::Kind::kAggregate) {
      if (!block.linked_attr.empty()) {  // empty for COUNT(*)
        NESTRA_ASSIGN_OR_RETURN(rt->linked_idx,
                                rt->block_schema.Resolve(block.linked_attr));
      }
    }
  }

  for (const auto& child : block.children) {
    NESTRA_ASSIGN_OR_RETURN(std::unique_ptr<BlockRt> c,
                            Prepare(*child, combined));
    rt->children.push_back(std::move(c));
  }
  return rt;
}

Result<TriBool> NestedIterationExecutor::EvalLink(const BlockRt& child,
                                                  const Row& ctx,
                                                  NestedIterStats* stats) {
  ++stats->subquery_evals;
  LinkingAccumulator acc(child.pred);
  acc.Reset(child.linking_ctx_idx >= 0 ? ctx[child.linking_ctx_idx]
                                       : child.pred.linking_const);

  const std::vector<Row>* scan_rows = nullptr;
  const std::vector<int64_t>* probe_ids = nullptr;
  std::vector<int64_t> btree_ids;
  if (child.use_index) {
    ++stats->index_probes;
    if (child.btree != nullptr) {
      btree_ids = child.btree->Lookup(child.btree_op,
                                      ctx[child.probe_ctx_idx]);
      probe_ids = &btree_ids;
    } else {
      probe_ids = &child.index->Lookup(ctx[child.probe_ctx_idx]);
    }
  } else {
    scan_rows = &child.filtered.rows();
  }
  const size_t n =
      child.use_index ? probe_ids->size() : scan_rows->size();

  for (size_t i = 0; i < n; ++i) {
    if (child.use_index) {
      if (IoSim* sim = IoSim::Get()) {
        sim->RandomRow(child.base_table, (*probe_ids)[i]);
      }
    }
    const Row& candidate = child.use_index
                               ? child.base_table->rows()[(*probe_ids)[i]]
                               : (*scan_rows)[i];
    ++stats->candidate_rows;
    const Row combined = Row::Concat(ctx, candidate);
    if (!child.residual.Matches(combined)) continue;
    // The candidate belongs to the subquery result only if its own
    // subqueries also accept it.
    bool qualifies = true;
    for (const auto& grandchild : child.children) {
      NESTRA_ASSIGN_OR_RETURN(TriBool sub, EvalLink(*grandchild, combined,
                                                    stats));
      if (!IsTrue(sub)) {
        qualifies = false;
        break;
      }
    }
    if (!qualifies) continue;
    acc.Add(Value::Bool(true),
            child.linked_idx >= 0 ? candidate[child.linked_idx]
                                  : Value::Null());
    if (acc.Decided()) break;
  }
  return acc.Result();
}

Result<Table> NestedIterationExecutor::Execute(const QueryBlock& root,
                                               NestedIterStats* stats) {
  NestedIterStats local;
  if (stats == nullptr) stats = &local;
  *stats = NestedIterStats();

  NESTRA_ASSIGN_OR_RETURN(std::unique_ptr<BlockRt> rt,
                          Prepare(root, Schema()));

  Table kept(rt->block_schema);
  for (const Row& row : rt->filtered.rows()) {
    ++stats->outer_tuples;
    bool qualifies = true;
    for (const auto& child : rt->children) {
      NESTRA_ASSIGN_OR_RETURN(TriBool t, EvalLink(*child, row, stats));
      if (!IsTrue(t)) {
        qualifies = false;
        break;
      }
    }
    if (qualifies) kept.AppendUnchecked(row);
  }

  return FinalizeRootOutput(root, std::move(kept));
}

Result<Table> NestedIterationExecutor::ExecuteSql(const std::string& sql,
                                                  NestedIterStats* stats) {
  NESTRA_ASSIGN_OR_RETURN(QueryBlockPtr root, ParseAndBind(sql, catalog_));
  return Execute(*root, stats);
}

}  // namespace nestra
