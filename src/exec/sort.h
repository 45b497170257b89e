#ifndef NESTRA_EXEC_SORT_H_
#define NESTRA_EXEC_SORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/exec_node.h"

namespace nestra {

/// \brief One ORDER BY key: column name + direction. NULLs sort first in
/// ascending order (per Value::TotalOrderCompare), last in descending.
struct SortKey {
  std::string column;
  bool ascending = true;
};

/// \brief One column's cells gathered in input order (read through the
/// input's row references), so comparisons index contiguous arrays by
/// input ordinal. Typed when every batch of the column's source stores it
/// in its declared typed storage; otherwise (mixed or generic cells) the
/// cells are kept as Values for Value::TotalOrderCompare.
struct KeyColumn {
  enum class Kind { kInt, kFloat, kString, kValue };
  Kind kind = Kind::kValue;
  bool ascending = true;
  /// True when Compare is a strict weak order over the cells: typed, with
  /// no NaN.
  bool weak_order = false;
  std::vector<uint8_t> nulls;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<const std::string*> strings;  // into the source batches
  std::vector<Value> values;

  // Value::TotalOrderCompare of input rows a and b: NULLs first; int/date
  // and double by < and > (a NaN ties with everything); strings by
  // compare.
  int Compare(uint32_t a, uint32_t b) const {
    const bool an = nulls[a] != 0;
    const bool bn = nulls[b] != 0;
    if (an || bn) return an == bn ? 0 : (an ? -1 : 1);
    switch (kind) {
      case Kind::kInt:
        return ints[a] < ints[b] ? -1 : (ints[a] > ints[b] ? 1 : 0);
      case Kind::kFloat:
        return doubles[a] < doubles[b] ? -1
                                       : (doubles[a] > doubles[b] ? 1 : 0);
      case Kind::kString: {
        const int c = strings[a]->compare(*strings[b]);
        return c < 0 ? -1 : (c > 0 ? 1 : 0);
      }
      case Kind::kValue:
        return Value::TotalOrderCompare(values[a], values[b]);
    }
    return 0;
  }

  /// Input row i's cell as a Value, bit-identical to
  /// ColumnVector::GetValue on the batch it came from.
  Value Get(uint32_t i) const {
    if (nulls[i] != 0) return Value::Null();
    switch (kind) {
      case Kind::kInt:
        return Value::Int64(ints[i]);
      case Kind::kFloat:
        return Value::Float64(doubles[i]);
      case Kind::kString:
        return Value::String(*strings[i]);
      case Kind::kValue:
        return values[i];
    }
    return Value::Null();
  }
};

/// Gathers column `idx` (declared `type`) of `rows`' relation in input
/// order. String cells are referenced, not copied: the relation's sources
/// must outlive the result.
KeyColumn GatherKeyColumn(const RefReader& rows, int idx, TypeId type,
                          bool ascending);

/// \brief A sort's result, readable in place: the input as row references
/// (the child's referenced body, or its drained batches as one source), the
/// stable sorted permutation of its input ordinals, and every sort key
/// gathered in input order. Sorted row i is input row `perm[i]`; nothing
/// else of the input is copied.
struct SortedRun {
  RowRefs rows;
  std::vector<uint32_t> perm;    // perm[i]: input ordinal of sorted row i
  std::vector<KeyColumn> keys;   // one per SortKey, indexed by ordinal
  std::vector<int> key_indices;  // the schema column of each SortKey
};

/// \brief Pipeline-breaking multi-key sort. This is the operator the
/// sort-based nest rides on: the "only the deepest nesting involves true
/// physical reordering" optimization (§4.2.1) is one SortNode for all levels.
///
/// The input is taken as row references (DrainAllRefs: a TableSourceNode
/// hands its body over in place), each key column is gathered through them
/// into one typed array, and a permutation of the input rows is
/// stable-sorted over those arrays — the order std::stable_sort with
/// Value::TotalOrderCompare gives the rows. When every key is typed and
/// NaN-free (a strict weak order) and the input is already in key order,
/// the permutation stays the identity without a sort: the stable order is
/// unique. NextBatch gathers the permuted rows column by column through the
/// references; Next materializes one row; HandOff gives the whole
/// SortedRun to a consumer that reads it in place (FusedNestSelectNode's
/// batch pass), so no output batch is built. With `num_threads > 1` the permutation is
/// sorted by a parallel stable merge sort; the stable order is unique, so
/// the result is element-for-element identical to the serial sort.
class SortNode final : public ExecNode {
 public:
  /// With `vectorized` the input is taken by HandOffRefs or drained via
  /// NextBatch, so batch-capable children run columnar; otherwise Next's
  /// rows are packed into batches. The sorted rows are identical either
  /// way.
  SortNode(ExecNodePtr child, std::vector<SortKey> keys, int num_threads = 1,
           bool vectorized = false)
      : child_(std::move(child)),
        keys_(std::move(keys)),
        num_threads_(num_threads < 1 ? 1 : num_threads),
        vectorized_(vectorized) {}

  const Schema& output_schema() const override {
    return child_->output_schema();
  }
  std::string name() const override { return "Sort"; }
  PipelineRole role() const override { return PipelineRole::kBreaker; }
  std::vector<ExecNode*> children() const override { return {child_.get()}; }

  /// The sorted result, for a parent that reads it in place instead of
  /// calling Next or NextBatch. Valid from Open to Close; counts every row
  /// as emitted, after which Next and NextBatch report end of stream.
  /// Must come before any Next or NextBatch: the first of those releases
  /// the run's `keys`, which only a HandOff reader needs.
  const SortedRun& HandOff();
  /// Reads the run's row references; valid from Open to Close.
  const RefReader& reader() const { return *reader_; }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* out, bool* eof) override;
  Status NextBatchImpl(RowBatch* out, bool* eof) override;
  void CloseImpl() override;

 private:
  // Frees the typed key columns: Next and NextBatch read only `perm` and
  // `rows`. They were never charged to the memory tracker, so the
  // accounted bytes do not change.
  void ReleaseKeys();

  ExecNodePtr child_;
  std::vector<SortKey> keys_;
  int num_threads_ = 1;
  bool vectorized_ = false;
  SortedRun run_;
  std::unique_ptr<RefReader> reader_;  // over run_.rows
  std::vector<uint64_t> window_;       // NextBatch's permuted ordinals
  size_t pos_ = 0;
  int64_t charged_bytes_ = 0;
};

}  // namespace nestra

#endif  // NESTRA_EXEC_SORT_H_
