#include "exec/sort.h"

#include <string>
#include <vector>

#include "common/memory_tracker.h"
#include "common/parallel_sort.h"

namespace nestra {

namespace {

int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

// One sort key's cells gathered in input order, so the comparator indexes
// contiguous arrays by input ordinal. Typed when every batch stores the
// key column in its declared typed storage; otherwise (mixed or generic
// cells) the cells are kept as Values for Value::TotalOrderCompare.
struct KeyColumn {
  enum class Kind { kInt, kFloat, kString, kValue };
  Kind kind = Kind::kValue;
  bool ascending = true;
  std::vector<uint8_t> nulls;
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<const std::string*> strings;  // into the drained batches
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
      case Kind::kString:
        return Sign(strings[a]->compare(*strings[b]));
      case Kind::kValue:
        return Value::TotalOrderCompare(values[a], values[b]);
    }
    return 0;
  }
};

KeyColumn GatherKey(const std::vector<RowBatch>& batches, int idx,
                    TypeId type, bool ascending, int64_t n) {
  KeyColumn key;
  key.ascending = ascending;
  bool typed = true;
  for (const RowBatch& b : batches) {
    const ColumnVector& col = b.column(idx);
    typed = typed && !col.generic() && col.type() == type;
  }
  if (typed) {
    switch (type) {
      case TypeId::kInt64:
      case TypeId::kDate:
        key.kind = KeyColumn::Kind::kInt;
        break;
      case TypeId::kFloat64:
        key.kind = KeyColumn::Kind::kFloat;
        break;
      case TypeId::kString:
        key.kind = KeyColumn::Kind::kString;
        break;
    }
  }
  key.nulls.reserve(static_cast<size_t>(n));
  for (const RowBatch& b : batches) {
    const ColumnVector& col = b.column(idx);
    key.nulls.insert(key.nulls.end(), col.nulls().begin(), col.nulls().end());
    switch (key.kind) {
      case KeyColumn::Kind::kInt:
        key.ints.insert(key.ints.end(), col.ints().begin(), col.ints().end());
        break;
      case KeyColumn::Kind::kFloat:
        key.doubles.insert(key.doubles.end(), col.doubles().begin(),
                           col.doubles().end());
        break;
      case KeyColumn::Kind::kString:
        for (const std::string& str : col.strings()) {
          key.strings.push_back(&str);
        }
        break;
      case KeyColumn::Kind::kValue:
        for (int64_t r = 0; r < b.num_rows(); ++r) {
          key.values.push_back(col.GetValue(r));
        }
        break;
    }
  }
  return key;
}

}  // namespace

Status SortNode::OpenImpl() {
  NESTRA_RETURN_NOT_OK(child_->Open());
  const Schema& schema = child_->output_schema();
  std::vector<int> key_indices;
  for (const SortKey& k : keys_) {
    NESTRA_ASSIGN_OR_RETURN(int idx, schema.Resolve(k.column));
    key_indices.push_back(idx);
  }
  batches_.clear();
  order_.clear();
  pos_ = 0;
  charged_bytes_ = 0;
  NESTRA_RETURN_NOT_OK(
      DrainAllBatches(child_.get(), vectorized_, &batches_, &charged_bytes_));
  // Always-on byte accounting for the sort buffer: the drain already
  // computed the logical footprint, so this is just bookkeeping.
  stats_.mem_bytes = charged_bytes_;
  stats_.peak_mem_bytes = charged_bytes_;
  if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
    NESTRA_RETURN_NOT_OK(mem->Charge(charged_bytes_));
  }

  int64_t n = 0;
  for (const RowBatch& b : batches_) n += b.num_rows();
  std::vector<KeyColumn> keys;
  for (size_t k = 0; k < keys_.size(); ++k) {
    const int idx = key_indices[k];
    keys.push_back(GatherKey(batches_, idx, schema.field(idx).type,
                             keys_[k].ascending, n));
  }
  // Stable sort of input ordinals keeps input order within equal keys,
  // which makes nested groups deterministic for tests — and makes the
  // parallel sort's output identical to the serial one.
  std::vector<uint32_t> perm(static_cast<size_t>(n));
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<uint32_t>(i);
  ParallelStableSort(
      &perm,
      [&keys](uint32_t a, uint32_t b) {
        for (const KeyColumn& key : keys) {
          const int c = key.Compare(a, b);
          if (c != 0) return key.ascending ? c < 0 : c > 0;
        }
        return false;
      },
      num_threads_);
  std::vector<uint64_t> refs;
  refs.reserve(static_cast<size_t>(n));
  for (size_t b = 0; b < batches_.size(); ++b) {
    for (int64_t r = 0; r < batches_[b].num_rows(); ++r) {
      refs.push_back(PackRowRef(b, r));
    }
  }
  order_.reserve(perm.size());
  for (const uint32_t i : perm) order_.push_back(refs[i]);
  stats_.sort_rows += n;
  if (timing_) {
    // The sorted payload: the drained bytes without the row headers.
    stats_.sort_bytes +=
        charged_bytes_ - n * static_cast<int64_t>(sizeof(Row));
  }
  return Status::OK();
}

void SortNode::CloseImpl() {
  batches_.clear();
  order_.clear();
  if (charged_bytes_ != 0) {
    if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
      mem->Release(charged_bytes_);
    }
    charged_bytes_ = 0;
    stats_.mem_bytes = 0;
  }
  child_->Close();
}

Status SortNode::NextImpl(Row* out, bool* eof) {
  if (pos_ >= order_.size()) {
    *eof = true;
    return Status::OK();
  }
  *eof = false;
  // Every reference is emitted exactly once, so its cells can move out.
  const uint64_t ref = order_[pos_++];
  *out = batches_[RefBatch(ref)].TakeRow(RefRow(ref));
  return Status::OK();
}

Status SortNode::NextBatchImpl(RowBatch* out, bool* eof) {
  size_t end = pos_ + static_cast<size_t>(RowBatch::kDefaultCapacity);
  if (end > order_.size()) end = order_.size();
  for (int c = 0; c < out->num_columns(); ++c) {
    out->column(c).AppendRefs(batches_, c, order_.data() + pos_,
                              static_cast<int64_t>(end - pos_));
  }
  out->set_num_rows(static_cast<int64_t>(end - pos_));
  pos_ = end;
  *eof = out->empty();
  return Status::OK();
}

}  // namespace nestra
