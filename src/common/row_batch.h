#ifndef NESTRA_COMMON_ROW_BATCH_H_
#define NESTRA_COMMON_ROW_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/value.h"

namespace nestra {

class RowBatch;
class SourceColumn;

/// Packed reference to row `r` of batch `b` in a list of batches:
/// (b << 32) | r. Operators that keep drained batches (join build, sort)
/// address their rows this way and gather output through
/// ColumnVector::AppendRefs.
inline uint64_t PackRowRef(size_t b, int64_t r) {
  return (static_cast<uint64_t>(b) << 32) | static_cast<uint64_t>(r);
}
inline size_t RefBatch(uint64_t ref) { return static_cast<size_t>(ref >> 32); }
inline int64_t RefRow(uint64_t ref) {
  return static_cast<int64_t>(ref & 0xffffffffU);
}

/// A reference that appends a NULL instead of reading a batch (the outer
/// join's padding).
inline constexpr uint64_t kNullRef = ~uint64_t{0};

/// \brief One column of a RowBatch: type-specialized storage plus a
/// per-entry null byte.
///
/// The declared schema type picks the storage vector (int64 for kInt64 and
/// kDate, double for kFloat64, std::string for kString). Values are not
/// type-checked at the Table layer, so a cell whose runtime type disagrees
/// with the declaration (e.g. a double in an int column) flips the column
/// into generic mode — a plain std::vector<Value> — preserving the exact
/// Value that a row-at-a-time pipeline would have carried. Reconstructed
/// Values are bit-identical either way: kDate storage round-trips through
/// Value::Int64, whose representation Value::Date shares.
///
/// The append/read methods are defined inline: they run once per cell on
/// the hot path of every vectorized operator.
class ColumnVector {
 public:
  ColumnVector() = default;

  /// Re-types the column and clears it; storage capacity is kept.
  void Reset(TypeId type);
  void Clear();

  TypeId type() const { return type_; }
  bool generic() const { return generic_; }
  int64_t size() const { return static_cast<int64_t>(nulls_.size()); }

  void Append(const Value& v) {
    if (v.is_null()) {
      AppendNull();
      return;
    }
    if (!generic_ && !MatchesStorage(type_, v)) ConvertToGeneric();
    if (generic_) {
      values_.push_back(v);
      nulls_.push_back(0);
      return;
    }
    switch (type_) {
      case TypeId::kInt64:
      case TypeId::kDate:
        ints_.push_back(v.int64());
        break;
      case TypeId::kFloat64:
        doubles_.push_back(v.float64());
        break;
      case TypeId::kString:
        strings_.push_back(v.string());
        break;
    }
    nulls_.push_back(0);
  }

  void Append(Value&& v) {
    if (v.is_null()) {
      AppendNull();
      return;
    }
    if (!generic_ && !MatchesStorage(type_, v)) ConvertToGeneric();
    if (generic_) {
      values_.push_back(std::move(v));
      nulls_.push_back(0);
      return;
    }
    switch (type_) {
      case TypeId::kInt64:
      case TypeId::kDate:
        ints_.push_back(v.int64());
        break;
      case TypeId::kFloat64:
        doubles_.push_back(v.float64());
        break;
      case TypeId::kString:
        strings_.push_back(std::move(const_cast<std::string&>(v.string())));
        break;
    }
    nulls_.push_back(0);
  }

  void AppendNull() {
    if (generic_) {
      values_.push_back(Value::Null());
      nulls_.push_back(1);
      return;
    }
    switch (type_) {
      case TypeId::kInt64:
      case TypeId::kDate:
        ints_.push_back(0);
        break;
      case TypeId::kFloat64:
        doubles_.push_back(0.0);
        break;
      case TypeId::kString:
        strings_.emplace_back();
        break;
    }
    nulls_.push_back(1);
  }

  /// Typed appends for kernels that already know the storage class. The
  /// caller must have checked `!generic()` and the column type.
  void AppendInt64(int64_t v) {
    ints_.push_back(v);
    nulls_.push_back(0);
  }
  void AppendFloat64(double v) {
    doubles_.push_back(v);
    nulls_.push_back(0);
  }

  /// Copies cell `i` of `src` into this column without routing through a
  /// Value when both sides share typed storage (the compaction / join
  /// emission fast path).
  void AppendFrom(const ColumnVector& src, int64_t i) {
    if (src.nulls_[i] != 0) {
      AppendNull();
      return;
    }
    if (generic_ || src.generic_ || type_ != src.type_) {
      Append(src.GetValue(i));
      return;
    }
    switch (type_) {
      case TypeId::kInt64:
      case TypeId::kDate:
        ints_.push_back(src.ints_[i]);
        break;
      case TypeId::kFloat64:
        doubles_.push_back(src.doubles_[i]);
        break;
      case TypeId::kString:
        strings_.push_back(src.strings_[i]);
        break;
    }
    nulls_.push_back(0);
  }

  /// Appends cells `sel[0..]` of `src`, in order — AppendFrom over a
  /// selection vector, with the storage decision made once per call
  /// instead of once per cell when both sides share typed storage.
  void AppendSelection(const ColumnVector& src,
                       const std::vector<int32_t>& sel) {
    if (generic_ || src.generic_ || type_ != src.type_) {
      for (const int32_t i : sel) AppendFrom(src, i);
      return;
    }
    // Null slots carry a zero/empty placeholder in typed storage, so
    // copying them verbatim keeps that invariant. Numeric slots are sized
    // once and written by index; reads stay bounds-checked under
    // _GLIBCXX_ASSERTIONS.
    const size_t base = nulls_.size();
    const size_t n = sel.size();
    nulls_.resize(base + n);
    uint8_t* nulls = nulls_.data() + base;
    for (size_t k = 0; k < n; ++k) nulls[k] = src.nulls_[sel[k]];
    switch (type_) {
      case TypeId::kInt64:
      case TypeId::kDate: {
        ints_.resize(base + n);
        int64_t* ints = ints_.data() + base;
        for (size_t k = 0; k < n; ++k) ints[k] = src.ints_[sel[k]];
        break;
      }
      case TypeId::kFloat64: {
        doubles_.resize(base + n);
        double* doubles = doubles_.data() + base;
        for (size_t k = 0; k < n; ++k) doubles[k] = src.doubles_[sel[k]];
        break;
      }
      case TypeId::kString:
        ReserveStrings(base + n);
        for (const int32_t i : sel) strings_.push_back(src.strings_[i]);
        break;
    }
  }

  /// Appends the cells `refs[0..n)` of `src` (packed with PackRowRef into
  /// the source's batches; kNullRef appends a NULL) — the gather for
  /// operators that emit rows of several batches. Cell-for-cell identical
  /// to AppendFrom per reference; the storage decision is made once per
  /// call, and only a generic or mixed-storage source falls back to
  /// AppendFrom.
  void AppendRefs(const SourceColumn& src, const uint64_t* refs, int64_t n);
  /// The same over column `col` of `batches`, resolved for this call.
  void AppendRefs(const std::vector<RowBatch>& batches, int col,
                  const uint64_t* refs, int64_t n);

  bool IsNull(int64_t i) const { return nulls_[i] != 0; }
  const std::vector<uint8_t>& nulls() const { return nulls_; }

  /// Raw typed storage; valid only when `!generic()` and the type matches.
  /// Null slots hold a zero/empty placeholder.
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }
  const std::vector<Value>& values() const { return values_; }

  /// Reconstructs the i-th cell as a Value (deep copy for strings).
  Value GetValue(int64_t i) const {
    if (nulls_[i] != 0) return Value::Null();
    if (generic_) return values_[i];
    switch (type_) {
      case TypeId::kInt64:
      case TypeId::kDate:
        // Value::Date shares Value::Int64's representation, so this is
        // bit-identical for both declared types.
        return Value::Int64(ints_[i]);
      case TypeId::kFloat64:
        return Value::Float64(doubles_[i]);
      case TypeId::kString:
        return Value::String(strings_[i]);
    }
    return Value::Null();
  }

  /// Logical byte footprint of the column: O(1) for typed numeric storage,
  /// O(n) over payloads for strings and generic columns. Deterministic —
  /// computed from entry counts and payload lengths, never from allocator
  /// capacity. Called once per batch at accounting boundaries, not per
  /// cell.
  int64_t ByteSize() const;

  /// Total length of the string payloads the column's cells would
  /// materialize (NULL cells carry none). O(n) over string and generic
  /// columns, O(1) otherwise.
  int64_t StringBytes() const;

  /// Like GetValue but transfers ownership of string payloads out of the
  /// column (cell `i` is left empty). For sinks that materialize each batch
  /// row exactly once and then Reset the batch.
  Value TakeValue(int64_t i) {
    if (nulls_[i] != 0) return Value::Null();
    if (generic_) return std::move(values_[i]);
    switch (type_) {
      case TypeId::kInt64:
      case TypeId::kDate:
        return Value::Int64(ints_[i]);
      case TypeId::kFloat64:
        return Value::Float64(doubles_[i]);
      case TypeId::kString:
        return Value::String(std::move(strings_[i]));
    }
    return Value::Null();
  }

 private:
  friend class SourceColumn;

  // True when `v` can live in the typed storage for declared type `type`.
  static bool MatchesStorage(TypeId type, const Value& v) {
    switch (type) {
      case TypeId::kInt64:
      case TypeId::kDate:
        return v.is_int();
      case TypeId::kFloat64:
        return v.is_float();
      case TypeId::kString:
        return v.is_string();
    }
    return false;
  }

  // Reserves string storage for `n` entries once per gather, growing at
  // least geometrically so repeated gathers into one column stay linear.
  void ReserveStrings(size_t n) {
    if (strings_.capacity() < n) {
      strings_.reserve(n > 2 * strings_.capacity() ? n
                                                   : 2 * strings_.capacity());
    }
  }

  // Moves the already-appended typed entries into values_ so mixed-type
  // columns keep exact row semantics. Out of line: cold by design.
  void ConvertToGeneric();

  TypeId type_ = TypeId::kInt64;
  bool generic_ = false;
  std::vector<uint8_t> nulls_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<Value> values_;
};

/// \brief Column `col` of every batch in a list, resolved once: the
/// per-batch column a PackRowRef indexes, and whether they all share one
/// typed storage. The batches must outlive it. Readers of a referenced body
/// (RowRefs, DESIGN.md §8) build one per output column and gather through
/// it window after window, instead of walking every batch per call.
class SourceColumn {
 public:
  SourceColumn() = default;
  SourceColumn(const std::vector<RowBatch>& batches, int col);

  const ColumnVector& batch(size_t b) const { return *cols_[b]; }
  /// True when every batch stores the column typed as `type` (vacuously
  /// for no batches): the typed gather applies.
  bool TypedAs(TypeId type) const {
    return cols_.empty() || (uniform_ && type_ == type);
  }

  /// Typed access for a gather that checked TypedAs: per batch, the null
  /// bytes and the typed storage array (int64_t for int64/date, double,
  /// std::string), indexed by RefBatch. One load each instead of walking
  /// batch → column → vector per cell.
  const uint8_t* const* nulls() const { return nulls_.data(); }
  template <typename T>
  const T* const* values() const {
    if constexpr (std::is_same_v<T, int64_t>) {
      return ints_.data();
    } else if constexpr (std::is_same_v<T, double>) {
      return doubles_.data();
    } else {
      static_assert(std::is_same_v<T, std::string>);
      return strings_.data();
    }
  }

  /// The referenced cell as a Value (NULL for kNullRef).
  Value GetValue(uint64_t ref) const {
    if (ref == kNullRef) return Value::Null();
    return cols_[RefBatch(ref)]->GetValue(RefRow(ref));
  }

  /// Total string payload of the cells `refs[0..n)` (pads, NULL and
  /// non-string cells add nothing): ColumnVector::StringBytes of their
  /// gather.
  int64_t StringBytes(const uint64_t* refs, int64_t n) const;

  /// ColumnVector::ByteSize of a fresh `type` column after
  /// AppendRefs(*this, refs, n), computed without the gather.
  int64_t GatheredByteSize(TypeId type, const uint64_t* refs,
                           int64_t n) const;

 private:
  std::vector<const ColumnVector*> cols_;
  bool uniform_ = true;  // no batch generic, and all of one TypeId
  TypeId type_ = TypeId::kInt64;
  // Filled only while uniform_: each batch's null bytes and the typed
  // array of type_'s storage (the other two stay empty).
  std::vector<const uint8_t*> nulls_;
  std::vector<const int64_t*> ints_;
  std::vector<const double*> doubles_;
  std::vector<const std::string*> strings_;
};

/// \brief A batch of rows in columnar layout, the unit of vectorized
/// execution (ExecNode::NextBatch).
///
/// A batch targets kDefaultCapacity rows; operators may emit fewer (a
/// filter after compaction) or occasionally more (a join finishing the
/// match list of its last probe row). Columns are positionally aligned
/// with the producing node's output schema.
class RowBatch {
 public:
  static constexpr int64_t kDefaultCapacity = 1024;

  RowBatch() = default;
  RowBatch(const RowBatch&) = default;
  RowBatch& operator=(const RowBatch&) = default;
  /// Moves leave the source empty (no rows, no columns), so a batch handed
  /// over by move can never be read twice.
  RowBatch(RowBatch&& other) noexcept
      : schema_(other.schema_),
        columns_(std::move(other.columns_)),
        num_rows_(std::exchange(other.num_rows_, 0)) {
    other.columns_.clear();
  }
  RowBatch& operator=(RowBatch&& other) noexcept {
    schema_ = other.schema_;
    columns_ = std::move(other.columns_);
    num_rows_ = std::exchange(other.num_rows_, 0);
    other.columns_.clear();
    return *this;
  }

  /// Points the batch at `schema` and clears it. The schema must outlive
  /// the batch. Cheap when the batch already uses the same schema object —
  /// the common case of one scratch batch per operator.
  void Reset(const Schema& schema);

  /// Drops all rows, keeping schema and storage capacity.
  void Clear();

  const Schema* schema() const { return schema_; }

  /// Re-points the batch at `schema` without touching its columns. For a
  /// batch handed across a stage boundary: its old schema pointer went
  /// stale when the owning Table moved.
  void Rebind(const Schema& schema) { schema_ = &schema; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  ColumnVector& column(int i) { return columns_[i]; }
  const ColumnVector& column(int i) const { return columns_[i]; }

  /// After kernels appended cells directly to the columns, records the
  /// resulting row count. Every column must have exactly `n` entries.
  void set_num_rows(int64_t n) { num_rows_ = n; }

  void AppendRow(const Row& row) {
    for (int c = 0; c < static_cast<int>(columns_.size()); ++c) {
      columns_[c].Append(row[c]);
    }
    ++num_rows_;
  }

  void AppendRow(Row&& row) {
    for (int c = 0; c < static_cast<int>(columns_.size()); ++c) {
      columns_[c].Append(std::move(row[c]));
    }
    ++num_rows_;
  }

  /// Reconstructs row `i`; cell-for-cell identical to what the row
  /// pipeline would have produced.
  Row MaterializeRow(int64_t i) const {
    std::vector<Value> values;
    values.reserve(columns_.size());
    for (const ColumnVector& col : columns_) {
      values.push_back(col.GetValue(i));
    }
    return Row(std::move(values));
  }

  /// Like MaterializeRow but moves string payloads out of the batch. Only
  /// for sinks that take every row at most once before the next Reset.
  Row TakeRow(int64_t i) {
    std::vector<Value> values;
    values.reserve(columns_.size());
    for (ColumnVector& col : columns_) {
      values.push_back(col.TakeValue(i));
    }
    return Row(std::move(values));
  }

  /// Sum of the columns' logical byte footprints (see
  /// ColumnVector::ByteSize).
  int64_t ByteSize() const;

  std::string ToString(int64_t max_rows = 10) const;

 private:
  const Schema* schema_ = nullptr;
  std::vector<ColumnVector> columns_;
  int64_t num_rows_ = 0;
};

}  // namespace nestra

#endif  // NESTRA_COMMON_ROW_BATCH_H_
