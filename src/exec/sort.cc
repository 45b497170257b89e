#include "exec/sort.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/memory_tracker.h"
#include "common/parallel_sort.h"

namespace nestra {

KeyColumn GatherKeyColumn(const std::vector<RowBatch>& batches, int idx,
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
  // A NaN ties with every number, and a generic column may tie an int64
  // with a double that is not equal to a tying int64; both break the
  // transitivity of equality. NULL slots hold 0.0.
  key.weak_order =
      key.kind != KeyColumn::Kind::kValue &&
      std::none_of(key.doubles.begin(), key.doubles.end(),
                   [](double d) { return std::isnan(d); });
  return key;
}

Status SortNode::OpenImpl() {
  NESTRA_RETURN_NOT_OK(child_->Open());
  const Schema& schema = child_->output_schema();
  run_ = SortedRun();
  for (const SortKey& k : keys_) {
    NESTRA_ASSIGN_OR_RETURN(int idx, schema.Resolve(k.column));
    run_.key_indices.push_back(idx);
  }
  std::vector<RowBatch>& batches = run_.batches;
  pos_ = 0;
  charged_bytes_ = 0;
  NESTRA_RETURN_NOT_OK(
      DrainAllBatches(child_.get(), vectorized_, &batches, &charged_bytes_));
  // Always-on byte accounting for the sort buffer: the drain already
  // computed the logical footprint, so this is just bookkeeping.
  stats_.mem_bytes = charged_bytes_;
  stats_.peak_mem_bytes = charged_bytes_;
  if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
    NESTRA_RETURN_NOT_OK(mem->Charge(charged_bytes_));
  }

  int64_t n = 0;
  for (const RowBatch& b : batches) n += b.num_rows();
  std::vector<KeyColumn>& keys = run_.keys;
  for (size_t k = 0; k < keys_.size(); ++k) {
    const int idx = run_.key_indices[k];
    keys.push_back(GatherKeyColumn(batches, idx, schema.field(idx).type,
                                   keys_[k].ascending, n));
  }
  // Stable sort of input ordinals keeps input order within equal keys,
  // which makes nested groups deterministic for tests — and makes the
  // parallel sort's output identical to the serial one.
  std::vector<uint32_t>& perm = run_.perm;
  perm.resize(static_cast<size_t>(n));
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<uint32_t>(i);
  const auto less = [&keys](uint32_t a, uint32_t b) {
    for (const KeyColumn& key : keys) {
      const int c = key.Compare(a, b);
      if (c != 0) return key.ascending ? c < 0 : c > 0;
    }
    return false;
  };
  // Under a strict weak order the stable order is unique, so an input
  // already in key order (the unnest join's output usually is: it probes
  // in the outer block's order) is its own stable sort. A NaN or mixed
  // int/double key has no such guarantee and is always sorted.
  const bool weak_order =
      std::all_of(keys.begin(), keys.end(),
                  [](const KeyColumn& key) { return key.weak_order; });
  if (!weak_order || !std::is_sorted(perm.begin(), perm.end(), less)) {
    ParallelStableSort(&perm, less, num_threads_);
  }
  std::vector<uint64_t> refs;
  refs.reserve(static_cast<size_t>(n));
  for (size_t b = 0; b < batches.size(); ++b) {
    for (int64_t r = 0; r < batches[b].num_rows(); ++r) {
      refs.push_back(PackRowRef(b, r));
    }
  }
  run_.order.reserve(perm.size());
  for (const uint32_t i : perm) run_.order.push_back(refs[i]);
  stats_.sort_rows += n;
  if (timing_) {
    // The sorted payload: the drained bytes without the row headers.
    stats_.sort_bytes +=
        charged_bytes_ - n * static_cast<int64_t>(sizeof(Row));
  }
  return Status::OK();
}

const SortedRun& SortNode::HandOff() {
  NESTRA_DCHECK(pos_ == 0);
  stats_.rows_out += static_cast<int64_t>(run_.order.size() - pos_);
  pos_ = run_.order.size();
  return run_;
}

void SortNode::CloseImpl() {
  run_ = SortedRun();
  if (charged_bytes_ != 0) {
    if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
      mem->Release(charged_bytes_);
    }
    charged_bytes_ = 0;
    stats_.mem_bytes = 0;
  }
  child_->Close();
}

void SortNode::ReleaseKeys() {
  run_.keys = std::vector<KeyColumn>();
  run_.perm = std::vector<uint32_t>();
}

Status SortNode::NextImpl(Row* out, bool* eof) {
  if (pos_ == 0) ReleaseKeys();
  if (pos_ >= run_.order.size()) {
    *eof = true;
    return Status::OK();
  }
  *eof = false;
  // Every reference is emitted exactly once, so its cells can move out.
  const uint64_t ref = run_.order[pos_++];
  *out = run_.batches[RefBatch(ref)].TakeRow(RefRow(ref));
  return Status::OK();
}

Status SortNode::NextBatchImpl(RowBatch* out, bool* eof) {
  if (pos_ == 0) ReleaseKeys();
  size_t end = pos_ + static_cast<size_t>(RowBatch::kDefaultCapacity);
  if (end > run_.order.size()) end = run_.order.size();
  for (int c = 0; c < out->num_columns(); ++c) {
    out->column(c).AppendRefs(run_.batches, c, run_.order.data() + pos_,
                              static_cast<int64_t>(end - pos_));
  }
  out->set_num_rows(static_cast<int64_t>(end - pos_));
  pos_ = end;
  *eof = out->empty();
  return Status::OK();
}

}  // namespace nestra
