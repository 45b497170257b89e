#ifndef NESTRA_STORAGE_CATALOG_H_
#define NESTRA_STORAGE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/table.h"
#include "storage/btree_index.h"
#include "storage/columnar_mirror.h"
#include "storage/hash_index.h"
#include "storage/sorted_index.h"
#include "storage/table_stats.h"

namespace nestra {

/// \brief Constraint and statistics metadata for one base table.
struct TableMetadata {
  /// The unique non-NULL key column the paper assumes every relation has
  /// ("we assume that each relation has a unique non-null attribute served
  /// as a primary key"). Unqualified name.
  std::string primary_key;
  /// Columns (beyond the PK) declared NOT NULL. The native baseline's
  /// antijoin rewrite is only legal when the relevant columns appear here —
  /// exactly System A's behaviour in Section 5.2.
  std::set<std::string> not_null_columns;
  /// Columns observed entirely non-NULL by the one-pass scan RegisterTable
  /// runs at load time. Sound for execution-time proofs because catalog
  /// tables are immutable after registration; advisory verifier rules use
  /// declared constraints only (see PropertyAnalyzer).
  std::set<std::string> observed_not_null;
};

/// \brief Named base tables plus lazily built and cached indexes.
///
/// The catalog owns table storage; execution operators reference tables by
/// pointer and must not outlive the catalog.
///
/// Thread safety: name lookups take a shared lock on `mu_`; the DDL mutators
/// (RegisterTable / DropTable / AddNotNull / DropNotNull) take it exclusively.
/// Lazy index construction is serialized per table by `Entry::index_mu`, so
/// concurrent queries may race to the same index and still build it exactly
/// once. Per-row execution never touches the catalog: operators cache the
/// `const Table*` / index pointers they obtain once per query, and std::map
/// node addresses are stable until erase, so those pointers stay valid as
/// long as no DropTable races a running query (the session layer's schema
/// lock in src/server/ guarantees that for managed sessions).
class Catalog {
 public:
  Catalog() = default;

  // Non-copyable and non-movable (indexes hold row ids into owned tables;
  // entries own mutexes, and concurrent readers hold pointers into us).
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;
  Catalog(Catalog&&) = delete;
  Catalog& operator=(Catalog&&) = delete;

  /// Registers a table. `primary_key` must name a column of `table` (may be
  /// empty for keyless test tables — then NRA plans add a synthetic row-id
  /// key at scan time). Fails on duplicate names or unknown PK columns.
  /// The load-time mirror build and stats pass run on the argument before
  /// the exclusive lock is taken, keeping the critical section to the map
  /// insert itself.
  Status RegisterTable(const std::string& name, Table table,
                       const std::string& primary_key = "",
                       std::set<std::string> not_null_columns = {});

  /// Drops a table and its cached indexes.
  Status DropTable(const std::string& name);

  bool HasTable(const std::string& name) const;
  Result<const Table*> GetTable(const std::string& name) const;
  Result<const TableMetadata*> GetMetadata(const std::string& name) const;

  /// Load-time statistics (per-column min/max, null counts, distinct
  /// estimates, zone map) collected by RegisterTable. Same lifetime contract
  /// as GetTable: the pointer stays valid as long as no DropTable races a
  /// running query. Stats die with the entry — a drop + re-register yields
  /// fresh stats AND a new TableVersion, so prepared plans cannot reuse
  /// decisions derived from the old data.
  Result<const TableStats*> GetStats(const std::string& name) const;

  /// The columnar mirror built at registration (see ColumnarMirror), bound
  /// to the entry's row store. Shared ownership keeps the granules alive for
  /// a scan that holds them across a concurrent drop; the row store behind
  /// `mirror->table()` follows GetTable's lifetime contract. A drop +
  /// re-register replaces the mirror together with the stats and the
  /// TableVersion, so a lookup never pairs new rows with old granules.
  Result<std::shared_ptr<const ColumnarMirror>> GetMirror(
      const std::string& name) const;

  /// True if `column` (unqualified) of `table_name` is declared NOT NULL —
  /// either the PK or listed in not_null_columns.
  bool IsNotNull(const std::string& table_name,
                 const std::string& column) const;

  /// True if `column` (unqualified) of `table_name` is provably non-NULL for
  /// execution purposes: declared NOT NULL (per IsNotNull) or observed
  /// entirely non-NULL by the registration-time column scan.
  bool ProvenNotNull(const std::string& table_name,
                     const std::string& column) const;

  /// Declares a column NOT NULL after registration (used by benches to
  /// toggle the paper's "NOT NULL constraint" scenarios).
  Status AddNotNull(const std::string& table_name, const std::string& column);
  /// Removes a NOT NULL declaration (cannot remove the PK's implicit one).
  Status DropNotNull(const std::string& table_name, const std::string& column);

  /// Returns (building and caching on first use) an equality index.
  Result<const HashIndex*> GetHashIndex(const std::string& table_name,
                                        const std::string& column) const;

  /// Returns (building and caching on first use) an ordered index.
  Result<const SortedIndex*> GetSortedIndex(const std::string& table_name,
                                            const std::string& column) const;

  /// Returns (building and caching on first use) a B+-tree index — the
  /// structure the modelled System A keeps on base tables; serves ordered
  /// and inequality probes with per-level simulated I/O.
  Result<const BTreeIndex*> GetBTreeIndex(const std::string& table_name,
                                          const std::string& column) const;

  std::vector<std::string> TableNames() const;

  /// Monotonic per-table schema version, bumped on every DDL that affects
  /// the table: (re-)registration, drop, and NOT NULL changes (constraint
  /// edits flip plan decisions such as the two-valued fast path, so prepared
  /// plans must treat them as schema changes). Returns 0 for tables that do
  /// not currently exist — registered tables always have version >= 1, so a
  /// version recorded at PREPARE time never matches after a drop.
  uint64_t TableVersion(const std::string& name) const;

  /// Catalog-wide DDL generation: bumped by every successful mutator call.
  uint64_t ddl_generation() const {
    return ddl_generation_.load(std::memory_order_acquire);
  }

 private:
  struct Entry {
    Table table;
    TableMetadata meta;
    TableStats stats;      // collected at registration, immutable afterwards
    std::shared_ptr<const ColumnarMirror> mirror;  // ditto, bound to `table`
    uint64_t version = 0;  // snapshot of ddl_generation_ at last change
    // Serializes lazy index construction for this table; cached index reads
    // and builds via const methods are safe from concurrent queries.
    mutable std::mutex index_mu;
    std::map<std::string, std::unique_ptr<HashIndex>> hash_indexes;
    std::map<std::string, std::unique_ptr<SortedIndex>> sorted_indexes;
    std::map<std::string, std::unique_ptr<BTreeIndex>> btree_indexes;
  };

  // Callers must hold mu_ (shared suffices: entry mutation beyond this point
  // is guarded by index_mu or happens under the exclusive DDL lock).
  Result<Entry*> GetEntryLocked(const std::string& name) const;

  // Guards tables_ map shape and entry table/meta/version fields.
  mutable std::shared_mutex mu_;
  // map (not unordered) for deterministic TableNames() output.
  mutable std::map<std::string, Entry> tables_;
  std::atomic<uint64_t> ddl_generation_{0};
};

}  // namespace nestra

#endif  // NESTRA_STORAGE_CATALOG_H_
