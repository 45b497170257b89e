#include "exec/sort.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/memory_tracker.h"
#include "common/parallel_sort.h"

namespace nestra {

KeyColumn GatherKeyColumn(const RefReader& rows, int idx, TypeId type,
                          bool ascending) {
  KeyColumn key;
  key.ascending = ascending;
  const SourceColumn& src = rows.column(idx);
  if (src.TypedAs(type)) {
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
  const RowRefs::Column& col = rows.rows().columns[static_cast<size_t>(idx)];
  const std::vector<uint64_t>& refs =
      rows.rows().refs[static_cast<size_t>(col.source)];
  const size_t n = refs.size();
  key.nulls.resize(n);
  // A pad (kNullRef) reads as NULL; a NULL slot's typed placeholder is
  // copied like any cell, as the batch gather does.
  const auto gather = [&](auto* out, auto pad) {
    using T = std::remove_pointer_t<decltype(out)>;
    const uint8_t* const* nulls = src.nulls();
    const T* const* vals = src.values<T>();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t ref = refs[i];
      if (ref == kNullRef) {
        key.nulls[i] = 1;
        out[i] = pad;
        continue;
      }
      key.nulls[i] = nulls[RefBatch(ref)][RefRow(ref)];
      out[i] = vals[RefBatch(ref)][RefRow(ref)];
    }
  };
  switch (key.kind) {
    case KeyColumn::Kind::kInt:
      key.ints.resize(n);
      gather(key.ints.data(), int64_t{0});
      break;
    case KeyColumn::Kind::kFloat:
      key.doubles.resize(n);
      gather(key.doubles.data(), 0.0);
      break;
    case KeyColumn::Kind::kString: {
      static const std::string kEmpty;
      const uint8_t* const* nulls = src.nulls();
      const std::string* const* vals = src.values<std::string>();
      key.strings.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t ref = refs[i];
        if (ref == kNullRef) {
          key.nulls[i] = 1;
          key.strings[i] = &kEmpty;
          continue;
        }
        key.nulls[i] = nulls[RefBatch(ref)][RefRow(ref)];
        key.strings[i] = &vals[RefBatch(ref)][RefRow(ref)];
      }
      break;
    }
    case KeyColumn::Kind::kValue:
      key.values.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        key.values.push_back(src.GetValue(refs[i]));
        key.nulls[i] = key.values.back().is_null() ? 1 : 0;
      }
      break;
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
  reader_.reset();
  for (const SortKey& k : keys_) {
    NESTRA_ASSIGN_OR_RETURN(int idx, schema.Resolve(k.column));
    run_.key_indices.push_back(idx);
  }
  pos_ = 0;
  NESTRA_RETURN_NOT_OK(DrainAllRefs(child_.get(), vectorized_, &run_.rows));
  reader_ = std::make_unique<RefReader>(run_.rows);
  // Always-on byte accounting for the sort buffer: the logical footprint
  // of the rows the references stand for, as if drained as batches.
  charged_bytes_ = RowRefsBytes(run_.rows);
  stats_.mem_bytes = charged_bytes_;
  stats_.peak_mem_bytes = charged_bytes_;
  if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
    NESTRA_RETURN_NOT_OK(mem->Charge(charged_bytes_));
  }

  const int64_t n = run_.rows.num_rows();
  std::vector<KeyColumn>& keys = run_.keys;
  for (size_t k = 0; k < keys_.size(); ++k) {
    const int idx = run_.key_indices[k];
    keys.push_back(GatherKeyColumn(*reader_, idx, schema.field(idx).type,
                                   keys_[k].ascending));
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
  stats_.rows_out += static_cast<int64_t>(run_.perm.size() - pos_);
  pos_ = run_.perm.size();
  return run_;
}

void SortNode::CloseImpl() {
  reader_.reset();
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

void SortNode::ReleaseKeys() { run_.keys = std::vector<KeyColumn>(); }

Status SortNode::NextImpl(Row* out, bool* eof) {
  if (pos_ == 0) ReleaseKeys();
  if (pos_ >= run_.perm.size()) {
    *eof = true;
    return Status::OK();
  }
  *eof = false;
  *out = reader_->MaterializeRow(run_.perm[pos_++]);
  return Status::OK();
}

Status SortNode::NextBatchImpl(RowBatch* out, bool* eof) {
  if (pos_ == 0) ReleaseKeys();
  size_t end = pos_ + static_cast<size_t>(RowBatch::kDefaultCapacity);
  if (end > run_.perm.size()) end = run_.perm.size();
  window_.assign(run_.perm.begin() + static_cast<std::ptrdiff_t>(pos_),
                 run_.perm.begin() + static_cast<std::ptrdiff_t>(end));
  reader_->AppendAt(window_.data(), static_cast<int64_t>(window_.size()),
                    out);
  out->set_num_rows(static_cast<int64_t>(end - pos_));
  pos_ = end;
  *eof = out->empty();
  return Status::OK();
}

}  // namespace nestra
