#include "storage/catalog.h"

namespace nestra {

Status Catalog::RegisterTable(const std::string& name, Table table,
                              const std::string& primary_key,
                              std::set<std::string> not_null_columns) {
  if (!primary_key.empty() &&
      table.schema().IndexOfExact(primary_key) < 0) {
    return Status::InvalidArgument("primary key column '" + primary_key +
                                   "' not in schema of table " + name);
  }
  for (const std::string& c : not_null_columns) {
    if (table.schema().IndexOfExact(c) < 0) {
      return Status::InvalidArgument("NOT NULL column '" + c +
                                     "' not in schema of table " + name);
    }
  }
  // One pass over the rows builds the columnar mirror; the stats (null
  // counts, numeric min/max, distinct estimates, zone map) are then read
  // column by column from its typed arrays. Both run on the argument BEFORE
  // taking the exclusive lock: they only read `table`, which no other
  // thread can see yet, so concurrent lookups of other tables proceed
  // unblocked while a large load is scanned. Tables are immutable once
  // registered, so the mirror, the observed-non-NULL proof and the planner
  // stats stay sound for the entry's lifetime; re-registration replaces them
  // and bumps the version, which is what invalidates prepared plans that
  // baked in stats decisions.
  TableMetadata meta;
  meta.primary_key = primary_key;
  meta.not_null_columns = std::move(not_null_columns);
  const Schema& schema = table.schema();
  const size_t num_cols = schema.fields().size();
  auto mirror = std::make_shared<ColumnarMirror>(table);
  TableStats stats = CollectTableStats(*mirror);
  for (size_t c = 0; c < num_cols; ++c) {
    if (stats.columns[c].null_count == 0) {
      meta.observed_not_null.insert(schema.fields()[c].name);
    }
  }

  std::unique_lock<std::shared_mutex> lock(mu_);
  // Entries own a mutex and are not movable, so construct in place and fill.
  auto [it, inserted] = tables_.try_emplace(name);
  if (!inserted) {
    return Status::AlreadyExists("table already registered: " + name);
  }
  Entry& e = it->second;
  e.table = std::move(table);
  e.meta = std::move(meta);
  e.stats = std::move(stats);
  mirror->BindRowStore(&e.table);
  e.mirror = std::move(mirror);
  e.version = ddl_generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  return Status::OK();
}

Status Catalog::DropTable(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (tables_.erase(name) == 0) {
    return Status::NotFound("table not found: " + name);
  }
  ddl_generation_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

bool Catalog::HasTable(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return tables_.count(name) > 0;
}

Result<Catalog::Entry*> Catalog::GetEntryLocked(
    const std::string& name) const {
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table not found: " + name);
  }
  return &it->second;
}

Result<const Table*> Catalog::GetTable(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  NESTRA_ASSIGN_OR_RETURN(Entry * e, GetEntryLocked(name));
  return const_cast<const Table*>(&e->table);
}

Result<const TableMetadata*> Catalog::GetMetadata(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  NESTRA_ASSIGN_OR_RETURN(Entry * e, GetEntryLocked(name));
  return const_cast<const TableMetadata*>(&e->meta);
}

Result<const TableStats*> Catalog::GetStats(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  NESTRA_ASSIGN_OR_RETURN(Entry * e, GetEntryLocked(name));
  return const_cast<const TableStats*>(&e->stats);
}

Result<std::shared_ptr<const ColumnarMirror>> Catalog::GetMirror(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  NESTRA_ASSIGN_OR_RETURN(Entry * e, GetEntryLocked(name));
  return e->mirror;
}

bool Catalog::IsNotNull(const std::string& table_name,
                        const std::string& column) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = tables_.find(table_name);
  if (it == tables_.end()) return false;
  const TableMetadata& meta = it->second.meta;
  if (!meta.primary_key.empty() && meta.primary_key == column) return true;
  return meta.not_null_columns.count(column) > 0;
}

bool Catalog::ProvenNotNull(const std::string& table_name,
                            const std::string& column) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = tables_.find(table_name);
  if (it == tables_.end()) return false;
  const TableMetadata& meta = it->second.meta;
  if (!meta.primary_key.empty() && meta.primary_key == column) return true;
  if (meta.not_null_columns.count(column) > 0) return true;
  return meta.observed_not_null.count(column) > 0;
}

Status Catalog::AddNotNull(const std::string& table_name,
                           const std::string& column) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  NESTRA_ASSIGN_OR_RETURN(Entry * e, GetEntryLocked(table_name));
  if (e->table.schema().IndexOfExact(column) < 0) {
    return Status::InvalidArgument("NOT NULL column '" + column +
                                   "' not in schema of table " + table_name);
  }
  e->meta.not_null_columns.insert(column);
  // Constraint edits flip plan decisions (two-valued fast path, antijoin
  // rewrites), so prepared plans must see them as schema changes.
  e->version = ddl_generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  return Status::OK();
}

Status Catalog::DropNotNull(const std::string& table_name,
                            const std::string& column) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  NESTRA_ASSIGN_OR_RETURN(Entry * e, GetEntryLocked(table_name));
  e->meta.not_null_columns.erase(column);
  e->version = ddl_generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  return Status::OK();
}

Result<const HashIndex*> Catalog::GetHashIndex(const std::string& table_name,
                                               const std::string& column) const {
  // Shared lock held for the whole build: DropTable needs the exclusive
  // lock, so the entry cannot be erased while the index is constructed;
  // index_mu makes racing builders construct the index exactly once.
  std::shared_lock<std::shared_mutex> lock(mu_);
  NESTRA_ASSIGN_OR_RETURN(Entry * e, GetEntryLocked(table_name));
  std::lock_guard<std::mutex> index_lock(e->index_mu);
  auto it = e->hash_indexes.find(column);
  if (it == e->hash_indexes.end()) {
    const int col = e->table.schema().IndexOfExact(column);
    if (col < 0) {
      return Status::NotFound("column '" + column + "' not in table " +
                              table_name);
    }
    it = e->hash_indexes
             .emplace(column, std::make_unique<HashIndex>(e->table, col))
             .first;
  }
  return const_cast<const HashIndex*>(it->second.get());
}

Result<const SortedIndex*> Catalog::GetSortedIndex(
    const std::string& table_name, const std::string& column) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  NESTRA_ASSIGN_OR_RETURN(Entry * e, GetEntryLocked(table_name));
  std::lock_guard<std::mutex> index_lock(e->index_mu);
  auto it = e->sorted_indexes.find(column);
  if (it == e->sorted_indexes.end()) {
    const int col = e->table.schema().IndexOfExact(column);
    if (col < 0) {
      return Status::NotFound("column '" + column + "' not in table " +
                              table_name);
    }
    it = e->sorted_indexes
             .emplace(column, std::make_unique<SortedIndex>(e->table, col))
             .first;
  }
  return const_cast<const SortedIndex*>(it->second.get());
}

Result<const BTreeIndex*> Catalog::GetBTreeIndex(
    const std::string& table_name, const std::string& column) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  NESTRA_ASSIGN_OR_RETURN(Entry * e, GetEntryLocked(table_name));
  std::lock_guard<std::mutex> index_lock(e->index_mu);
  auto it = e->btree_indexes.find(column);
  if (it == e->btree_indexes.end()) {
    const int col = e->table.schema().IndexOfExact(column);
    if (col < 0) {
      return Status::NotFound("column '" + column + "' not in table " +
                              table_name);
    }
    it = e->btree_indexes
             .emplace(column, std::make_unique<BTreeIndex>(e->table, col))
             .first;
  }
  return const_cast<const BTreeIndex*>(it->second.get());
}

std::vector<std::string> Catalog::TableNames() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [name, _] : tables_) out.push_back(name);
  return out;
}

uint64_t Catalog::TableVersion(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = tables_.find(name);
  if (it == tables_.end()) return 0;
  return it->second.version;
}

}  // namespace nestra
