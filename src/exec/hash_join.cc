#include "exec/hash_join.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/memory_tracker.h"
#include "common/thread_pool.h"

namespace nestra {

HashJoinNode::HashJoinNode(ExecNodePtr left, ExecNodePtr right,
                           JoinType join_type, std::vector<EquiPair> equi,
                           ExprPtr residual, int num_threads, bool vectorized,
                           const JoinBuildHints& hints)
    : left_(std::move(left)),
      right_(std::move(right)),
      join_type_(join_type),
      equi_(std::move(equi)),
      residual_(std::move(residual)),
      num_threads_(num_threads < 1 ? 1 : num_threads),
      hints_(hints) {
  vectorized_ = vectorized;
  // Schema is known at construction: joins never rename.
  const Schema& ls = left_->output_schema();
  const Schema& rs = right_->output_schema();
  if (join_type_ == JoinType::kInner || join_type_ == JoinType::kLeftOuter) {
    Schema padded = rs;
    if (join_type_ == JoinType::kLeftOuter) {
      // Outer padding makes every right field nullable.
      std::vector<Field> fields = rs.fields();
      for (Field& f : fields) f.nullable = true;
      padded = Schema(std::move(fields));
    }
    schema_ = Schema::Concat(ls, padded);
  } else {
    schema_ = ls;
  }
  right_width_ = rs.num_fields();
}

std::string HashJoinNode::detail() const {
  return hints_.perfect ? "perfect" : "";
}

Status HashJoinNode::ChargeMem(int64_t bytes) {
  if (bytes == 0) return Status::OK();
  charged_mem_ += bytes;
  stats_.mem_bytes += bytes;
  if (stats_.mem_bytes > stats_.peak_mem_bytes) {
    stats_.peak_mem_bytes = stats_.mem_bytes;
  }
  if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
    return mem->Charge(bytes);
  }
  return Status::OK();
}

void HashJoinNode::ReleaseMem(int64_t bytes) {
  if (bytes == 0) return;
  charged_mem_ -= bytes;
  stats_.mem_bytes -= bytes;
  if (QueryMemoryTracker* mem = CurrentQueryMemory()) {
    mem->Release(bytes);
  }
}

namespace {

// Writes one SqlHash key combine per row [begin, end) of `batch` to
// hashes[0..end-begin) and the rows' NULL-key flags to nulls[0..),
// column-at-a-time. Byte-identical to SqlKeyHashOn over the materialized
// rows (kFnvOffsetBasis, then per key column h ^= SqlHash; h *= kFnvPrime).
// With `nulls_only` just the flags.
void HashKeyColumns(const RowBatch& batch, const std::vector<int>& key_idx,
                    bool nulls_only, int64_t begin, int64_t end,
                    size_t* hashes, uint8_t* nulls) {
  constexpr size_t kNullHash = 0x9e3779b97f4a7c15ULL;
  constexpr size_t kNumericMix = 0xc4ceb9fe1a85ec53ULL;
  const size_t n = static_cast<size_t>(end - begin);
  std::fill(nulls, nulls + n, uint8_t{0});
  std::fill(hashes, hashes + n, nulls_only ? size_t{0} : kFnvOffsetBasis);
  for (const int idx : key_idx) {
    const ColumnVector& col = batch.column(idx);
    const std::vector<uint8_t>& col_nulls = col.nulls();
    if (nulls_only) {
      for (size_t k = 0; k < n; ++k) {
        if (col_nulls[static_cast<size_t>(begin) + k] != 0) nulls[k] = 1;
      }
      continue;
    }
    const bool generic = col.generic();
    for (size_t k = 0; k < n; ++k) {
      const size_t i = static_cast<size_t>(begin) + k;
      size_t vh = 0;
      if (col_nulls[i] != 0) {
        nulls[k] = 1;
        vh = kNullHash;
      } else if (generic) {
        vh = col.GetValue(static_cast<int64_t>(i)).SqlHash();
      } else {
        switch (col.type()) {
          case TypeId::kInt64:
          case TypeId::kDate: {
            const double d = static_cast<double>(col.ints()[i]);
            vh = std::hash<double>()(d) ^ kNumericMix;
            break;
          }
          case TypeId::kFloat64: {
            double d = col.doubles()[i];
            if (d == 0.0) d = 0.0;  // canonicalize -0.0, like SqlHash
            vh = std::hash<double>()(d) ^ kNumericMix;
            break;
          }
          case TypeId::kString:
            vh = std::hash<std::string>()(col.strings()[i]);
            break;
        }
      }
      hashes[k] ^= vh;
      hashes[k] *= kFnvPrime;
    }
  }
}

}  // namespace

Status HashJoinNode::OpenImpl() {
  NESTRA_RETURN_NOT_OK(left_->Open());
  NESTRA_RETURN_NOT_OK(right_->Open());

  const Schema& ls = left_->output_schema();
  const Schema& rs = right_->output_schema();
  left_key_idx_.clear();
  right_key_idx_.clear();
  for (const EquiPair& p : equi_) {
    NESTRA_ASSIGN_OR_RETURN(int li, ls.Resolve(p.left));
    NESTRA_ASSIGN_OR_RETURN(int ri, rs.Resolve(p.right));
    left_key_idx_.push_back(li);
    right_key_idx_.push_back(ri);
  }
  // Equi pairs come in matched (left, right) columns.
  NESTRA_DCHECK(left_key_idx_.size() == right_key_idx_.size());
  residual_schema_ = Schema::Concat(ls, rs);
  NESTRA_ASSIGN_OR_RETURN(
      bound_residual_, BoundPredicate::Make(residual_.get(), residual_schema_));
  residual_compiled_ =
      residual_ != nullptr &&
      VectorizedPredicate::Compile(residual_.get(), residual_schema_,
                                   &residual_vec_);
  residual_cols_.clear();
  if (residual_compiled_) residual_cols_ = residual_vec_.used_columns();
  const auto distinct = [](std::vector<int> cols) {
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    return cols;
  };
  probe_key_cols_ = distinct(left_key_idx_);
  build_key_cols_ = distinct(right_key_idx_);

  pending_.clear();
  pending_pos_ = 0;
  left_done_ = false;
  probe_count_ = 0;
  probe_taken_ = false;
  probe_ = RowRefs();
  probe_reader_.reset();
  probe_begin_ = 0;
  probe_next_ = 0;
  probe_batch_.Clear();
  probe_pos_ = 0;
  out_ = RowRefs();
  out_reader_.reset();
  return BuildTable();
}

Status HashJoinNode::BuildTable() {
  build_has_null_key_ = false;
  build_rows_ = 0;
  perfect_built_ = false;
  perfect_head_.clear();
  flat_head_.clear();
  build_reader_.reset();
  build_ = RowRefs();

  // Take the child whole (Next/NextBatch is a serial protocol), gather its
  // key columns, then hash them in parallel chunks. The charge is the
  // logical bytes of the rows the references stand for.
  NESTRA_RETURN_NOT_OK(DrainAllRefs(right_.get(), vectorized_, &build_));
  build_reader_ = std::make_unique<RefReader>(build_);
  NESTRA_RETURN_NOT_OK(ChargeMem(RowRefsBytes(build_)));
  const int64_t n = build_.num_rows();
  build_rows_ = n;
  build_keys_.Reset(right_->output_schema());
  for (const int c : build_key_cols_) {
    build_reader_->AppendRange(c, 0, n, &build_keys_.column(c));
  }
  build_keys_.set_num_rows(n);
  build_key_storage_.clear();
  for (const int c : right_key_idx_) {
    build_key_storage_.push_back(StorageOf(build_keys_.column(c)));
  }
  if (n == 0) return Status::OK();

  std::vector<size_t> hashes(static_cast<size_t>(n));
  std::vector<uint8_t> has_null(static_cast<size_t>(n), 0);
  const int64_t chunks =
      (n + RowBatch::kDefaultCapacity - 1) / RowBatch::kDefaultCapacity;
  const auto hash_keys = [&](bool nulls_only) {
    ParallelForEach(chunks, num_threads_, [&](int64_t c) {
      const int64_t begin = c * RowBatch::kDefaultCapacity;
      const int64_t end = std::min(n, begin + RowBatch::kDefaultCapacity);
      HashKeyColumns(build_keys_, right_key_idx_, nulls_only, begin, end,
                     hashes.data() + begin, has_null.data() + begin);
    });
  };
  // Perfect (dense-array) keying: single equality key over a hinted dense
  // int range. It needs only the NULL flags; the hashes are computed only
  // when a wrong hint makes it fall through to the flat build below
  // (validated against the actual rows, never corrupting results).
  const bool try_perfect = hints_.perfect && equi_.size() == 1;
  hash_keys(/*nulls_only=*/try_perfect);
  // NULL keys never match; the null-aware antijoin still needs to know
  // whether the build side holds one.
  build_has_null_key_ =
      std::find(has_null.begin(), has_null.end(), uint8_t{1}) != has_null.end();
  if (try_perfect) {
    if (TryPerfectBuild()) {
      return ChargeMem(
          static_cast<int64_t>(perfect_head_.size() * sizeof(int32_t) +
                               flat_next_.size() * sizeof(int32_t)));
    }
    hash_keys(/*nulls_only=*/false);
  }

  flat_hash_ = std::move(hashes);
  size_t num_buckets = 16;
  while (num_buckets < static_cast<size_t>(n) * 2) num_buckets <<= 1;
  flat_mask_ = num_buckets - 1;
  flat_head_.assign(num_buckets, -1);
  flat_next_.assign(static_cast<size_t>(n), -1);
  // Reverse insertion order: each push-front then leaves every chain in
  // arrival order, so candidates enumerate in build arrival order.
  for (int64_t i = n - 1; i >= 0; --i) {
    const size_t si = static_cast<size_t>(i);
    if (has_null[si] != 0) continue;
    const size_t b = flat_hash_[si] & flat_mask_;
    flat_next_[si] = flat_head_[b];
    flat_head_[b] = static_cast<int32_t>(i);
  }
  return ChargeMem(static_cast<int64_t>(flat_head_.size() * sizeof(int32_t) +
                                        flat_next_.size() * sizeof(int32_t) +
                                        flat_hash_.size() * sizeof(size_t)));
}

bool HashJoinNode::TryPerfectBuild() {
  const int64_t min = hints_.perfect_min;
  const int64_t max = hints_.perfect_max;
  if (max < min) return false;
  const int64_t span = max - min + 1;  // the estimator caps this at 2^22
  const ColumnVector& col = build_keys_.column(right_key_idx_[0]);
  perfect_head_.assign(static_cast<size_t>(span), -1);
  flat_next_.assign(static_cast<size_t>(build_rows_), -1);
  // One pass checks each key and inserts it: every non-NULL build key must
  // be an int64 inside the hinted range. Load-time stats guarantee this for
  // immutable catalog tables; anything else (a stale hint) degrades to the
  // flat build, never to wrong results. Rows run in reverse, like the flat
  // build: push-front then leaves every chain in arrival order.
  const std::vector<uint8_t>& nulls = col.nulls();
  const bool ints = !col.generic() && (col.type() == TypeId::kInt64 ||
                                       col.type() == TypeId::kDate);
  for (int64_t j = build_rows_ - 1; j >= 0; --j) {
    if (nulls[static_cast<size_t>(j)] != 0) continue;
    bool is_int = ints;
    int64_t key = 0;
    if (ints) {
      key = col.ints()[static_cast<size_t>(j)];
    } else {
      const Value v = col.GetValue(j);
      is_int = v.is_int();
      if (is_int) key = v.int64();
    }
    if (!is_int || key < min || key > max) {
      perfect_head_ = std::vector<int32_t>();
      return false;
    }
    const size_t slot = static_cast<size_t>(key - min);
    flat_next_[static_cast<size_t>(j)] = perfect_head_[slot];
    perfect_head_[slot] = static_cast<int32_t>(j);
  }
  perfect_built_ = true;
  return true;
}

bool HashJoinNode::DenseKeyOf(const Value& v, int64_t* key) const {
  if (v.is_int()) {
    *key = v.int64();
    return *key >= hints_.perfect_min && *key <= hints_.perfect_max;
  }
  // SQL key equality: a float equal to an integer matches it, so integral
  // in-range doubles index the array; everything else matches nothing.
  const auto d = v.AsDouble();  // nullopt for NULL / string
  if (!d.has_value() || *d != std::floor(*d)) return false;
  if (*d < static_cast<double>(hints_.perfect_min) ||
      *d > static_cast<double>(hints_.perfect_max)) {
    return false;
  }
  *key = static_cast<int64_t>(*d);
  return true;
}

Row HashJoinNode::ConcatBuildRow(const Row& left_row, uint64_t j) const {
  std::vector<Value> values;
  values.reserve(static_cast<size_t>(left_row.size() + right_width_));
  values.insert(values.end(), left_row.values().begin(),
                left_row.values().end());
  for (int c = 0; c < right_width_; ++c) {
    values.push_back(build_reader_->GetValue(c, static_cast<int64_t>(j)));
  }
  return Row(std::move(values));
}

void HashJoinNode::PerfectCandidates(int64_t key,
                                     std::vector<uint64_t>* out) const {
  for (int32_t j = perfect_head_[static_cast<size_t>(key -
                                                     hints_.perfect_min)];
       j >= 0; j = flat_next_[static_cast<size_t>(j)]) {
    out->push_back(static_cast<uint64_t>(j));
  }
}

void HashJoinNode::GatherCandidates(const std::vector<Value>& key, size_t h,
                                    std::vector<uint64_t>* out) const {
  WalkChain(
      h,
      [&](size_t j) {
        for (size_t k = 0; k < right_key_idx_.size(); ++k) {
          const Value cell = build_keys_.column(right_key_idx_[k])
                                 .GetValue(static_cast<int64_t>(j));
          if (Value::TotalOrderCompare(key[k], cell) != 0) return false;
        }
        return true;
      },
      out);
}

void HashJoinNode::GatherCandidatesTyped(int64_t i, size_t h,
                                         std::vector<uint64_t>* out) const {
  const size_t si = static_cast<size_t>(i);
  WalkChain(
      h,
      [&](size_t j) {
        // NULL keys are never chained nor looked up, so every slot read
        // here holds a value.
        for (size_t k = 0; k < right_key_idx_.size(); ++k) {
          const ColumnVector& pc = probe_batch_.column(left_key_idx_[k]);
          const ColumnVector& bc = build_keys_.column(right_key_idx_[k]);
          switch (build_key_storage_[k]) {
            case KeyStorage::kInt:
              if (pc.ints()[si] != bc.ints()[j]) return false;
              break;
            case KeyStorage::kFloat: {
              // A NaN ties with everything, as in TotalOrderCompare.
              const double x = pc.doubles()[si];
              const double y = bc.doubles()[j];
              if (x < y || x > y) return false;
              break;
            }
            case KeyStorage::kString:
              if (pc.strings()[si] != bc.strings()[j]) return false;
              break;
            case KeyStorage::kMixed:
              return false;  // excluded by the caller
          }
        }
        return true;
      },
      out);
}

HashJoinNode::KeyStorage HashJoinNode::StorageOf(const ColumnVector& col) {
  if (col.generic()) return KeyStorage::kMixed;
  switch (col.type()) {
    case TypeId::kInt64:
    case TypeId::kDate:
      return KeyStorage::kInt;
    case TypeId::kFloat64:
      return KeyStorage::kFloat;
    case TypeId::kString:
      return KeyStorage::kString;
  }
  return KeyStorage::kMixed;
}

void HashJoinNode::ProbeRow(const Row& left_row, std::vector<Row>* out) {
  flat_candidates_.clear();
  bool probe_null = false;
  if (perfect_built_) {
    const Value& v = left_row[left_key_idx_[0]];
    probe_null = v.is_null();
    int64_t key = 0;
    if (!probe_null && DenseKeyOf(v, &key)) {
      PerfectCandidates(key, &flat_candidates_);
    }
  } else {
    scratch_key_.clear();
    for (const int idx : left_key_idx_) {
      if (left_row[idx].is_null()) probe_null = true;
      scratch_key_.push_back(left_row[idx]);
    }
    if (!probe_null) {
      GatherCandidates(scratch_key_, SqlValueKeyHash{}(scratch_key_),
                       &flat_candidates_);
    }
  }

  bool matched = false;
  for (const uint64_t ref : flat_candidates_) {
    Row combined = ConcatBuildRow(left_row, ref);
    if (!bound_residual_.Matches(combined)) continue;
    matched = true;
    if (join_type_ == JoinType::kInner ||
        join_type_ == JoinType::kLeftOuter) {
      // Joins never rename: the concatenated row is exactly as wide as
      // the schema fixed at construction.
      NESTRA_DCHECK(combined.size() == schema_.num_fields());
      out->push_back(std::move(combined));
      continue;
    }
    // Semi/anti flavors decide on the first residual-passing match.
    break;
  }

  switch (join_type_) {
    case JoinType::kInner:
      break;  // matches already emitted
    case JoinType::kLeftSemi:
      if (matched) out->push_back(left_row);
      break;
    case JoinType::kLeftOuter:
      if (!matched) {
        // NULL padding must line up with the right side's full width.
        NESTRA_DCHECK(left_row.size() + right_width_ == schema_.num_fields());
        out->push_back(Row::Concat(left_row, Row::Nulls(right_width_)));
      }
      break;
    case JoinType::kLeftAnti:
      if (!matched) out->push_back(left_row);
      break;
    case JoinType::kLeftAntiNullAware: {
      if (matched) break;
      // NOT IN semantics (single conceptual key): empty set keeps the row;
      // otherwise NULL probe key or NULL in the build keys -> Unknown ->
      // dropped.
      if (build_rows_ == 0) {
        out->push_back(left_row);
        break;
      }
      if (!probe_null && !build_has_null_key_) out->push_back(left_row);
      break;
    }
  }
}

Status HashJoinNode::NextImpl(Row* out, bool* eof) {
  while (pending_pos_ >= pending_.size()) {
    if (left_done_) {
      *eof = true;
      return Status::OK();
    }
    pending_.clear();
    pending_pos_ = 0;
    Row left_row;
    bool left_eof = false;
    NESTRA_RETURN_NOT_OK(left_->Next(&left_row, &left_eof));
    if (left_eof) {
      left_done_ = true;
      continue;
    }
    ++probe_count_;
    ProbeRow(left_row, &pending_);
  }
  *out = std::move(pending_[pending_pos_++]);
  *eof = false;
  return Status::OK();
}

Status HashJoinNode::TakeProbe() {
  NESTRA_RETURN_NOT_OK(DrainAllRefs(left_.get(), vectorized_, &probe_));
  probe_reader_ = std::make_unique<RefReader>(probe_);
  probe_taken_ = true;
  // Output sources: the probe's, then the build's for the joins that
  // carry build columns; output columns follow the schema.
  const bool combining = join_type_ == JoinType::kInner ||
                         join_type_ == JoinType::kLeftOuter;
  out_ = RowRefs();
  out_.sources = probe_.sources;
  out_.columns = probe_.columns;
  if (combining) {
    const int offset = static_cast<int>(probe_.sources.size());
    out_.sources.insert(out_.sources.end(), build_.sources.begin(),
                        build_.sources.end());
    for (const RowRefs::Column& c : build_.columns) {
      out_.columns.push_back({c.source + offset, c.column});
    }
  }
  out_.refs.resize(out_.sources.size());
  out_reader_ = std::make_unique<RefReader>(out_);
  return Status::OK();
}

void HashJoinNode::LoadProbeWindow() {
  probe_begin_ = probe_next_;
  const int64_t n = std::min(probe_.num_rows() - probe_begin_,
                             RowBatch::kDefaultCapacity);
  probe_next_ = probe_begin_ + n;
  probe_pos_ = 0;
  probe_count_ += n;
  probe_batch_.Reset(left_->output_schema());
  for (const int c : probe_key_cols_) {
    probe_reader_->AppendRange(c, probe_begin_, probe_next_,
                               &probe_batch_.column(c));
  }
  probe_batch_.set_num_rows(n);
  const size_t sn = static_cast<size_t>(n);
  probe_hashes_.resize(sn);
  probe_null_.resize(sn);
  // The perfect probe indexes by value, not hash — only the NULL flags
  // are needed. Skipping the hash pass is most of the perfect join's win
  // on the batch path.
  HashKeyColumns(probe_batch_, left_key_idx_, /*nulls_only=*/perfect_built_,
                 0, n, probe_hashes_.data(), probe_null_.data());

  // The flat probe compares keys on the typed arrays when each probe key
  // column shares its build column's typed storage class.
  bool typed = true;
  for (size_t k = 0; k < left_key_idx_.size(); ++k) {
    typed = typed && build_key_storage_[k] != KeyStorage::kMixed &&
            StorageOf(probe_batch_.column(left_key_idx_[k])) ==
                build_key_storage_[k];
  }
  pair_begin_.assign(sn + 1, 0);
  pair_ref_.clear();
  for (int64_t i = 0; i < n; ++i) {
    const size_t si = static_cast<size_t>(i);
    pair_begin_[si] = static_cast<int32_t>(pair_ref_.size());
    if (probe_null_[si] != 0) continue;
    if (perfect_built_) {
      const ColumnVector& col = probe_batch_.column(left_key_idx_[0]);
      int64_t key = 0;
      bool in_range;
      if (!col.generic() && (col.type() == TypeId::kInt64 ||
                             col.type() == TypeId::kDate)) {
        key = col.ints()[si];
        in_range = key >= hints_.perfect_min && key <= hints_.perfect_max;
      } else {
        in_range = DenseKeyOf(col.GetValue(i), &key);
      }
      if (in_range) PerfectCandidates(key, &pair_ref_);
      continue;
    }
    if (typed) {
      GatherCandidatesTyped(i, probe_hashes_[si], &pair_ref_);
      continue;
    }
    scratch_key_.clear();
    for (const int idx : left_key_idx_) {
      scratch_key_.push_back(probe_batch_.column(idx).GetValue(i));
    }
    GatherCandidates(scratch_key_, probe_hashes_[si], &pair_ref_);
  }
  pair_begin_[sn] = static_cast<int32_t>(pair_ref_.size());
  if (!residual_compiled_ || pair_ref_.empty()) return;

  // The residual runs once over every candidate pair of the window: gather
  // the columns it reads (probe cells repeated per pair, build cells by
  // ordinal) into one combined batch and select the survivors.
  pair_probe_.clear();
  for (size_t i = 0; i < sn; ++i) {
    pair_probe_.resize(static_cast<size_t>(pair_begin_[i + 1]),
                       static_cast<uint64_t>(probe_begin_) + i);
  }
  const int left_width = probe_batch_.num_columns();
  const int64_t num_pairs = static_cast<int64_t>(pair_ref_.size());
  pair_batch_.Reset(residual_schema_);
  for (const int c : residual_cols_) {
    ColumnVector& dst = pair_batch_.column(c);
    if (c < left_width) {
      probe_reader_->AppendAt(c, pair_probe_.data(), num_pairs, &dst);
    } else {
      build_reader_->AppendAt(c - left_width, pair_ref_.data(), num_pairs,
                              &dst);
    }
  }
  pair_batch_.set_num_rows(num_pairs);
  residual_vec_.Select(pair_batch_, &pair_sel_);
  pair_pass_.assign(pair_ref_.size(), 0);
  for (const int32_t k : pair_sel_) pair_pass_[static_cast<size_t>(k)] = 1;
}

int64_t HashJoinNode::ProbeBatchRow(int64_t i) {
  const size_t si = static_cast<size_t>(i);
  const int32_t begin = pair_begin_[si];
  const int32_t end = pair_begin_[si + 1];
  const int32_t row = static_cast<int32_t>(i);
  const bool combining = join_type_ == JoinType::kInner ||
                         join_type_ == JoinType::kLeftOuter;
  const bool no_residual = bound_residual_.always_true();
  const size_t before = emit_probe_.size();

  // A residual without batch kernels is judged on the concatenated row;
  // either way only the decision is made per pair, and FlushEmits composes
  // the output references.
  Row left_row;
  if (!no_residual && !residual_compiled_ && begin < end) {
    left_row = probe_reader_->MaterializeRow(probe_begin_ + i);
  }
  bool matched = false;
  for (int32_t k = begin; k < end; ++k) {
    const size_t sk = static_cast<size_t>(k);
    const bool pass =
        no_residual ||
        (residual_compiled_ ? pair_pass_[sk] != 0
                            : bound_residual_.Matches(
                                  ConcatBuildRow(left_row, pair_ref_[sk])));
    if (!pass) continue;
    matched = true;
    // Semi/anti flavors decide on the first residual-passing match.
    if (!combining) break;
    emit_probe_.push_back(row);
    emit_ref_.push_back(pair_ref_[sk]);
  }

  // Per-row epilogue, mirroring ProbeRow exactly.
  switch (join_type_) {
    case JoinType::kInner:
      break;
    case JoinType::kLeftSemi:
      if (matched) emit_probe_.push_back(row);
      break;
    case JoinType::kLeftOuter:
      if (!matched) {
        emit_probe_.push_back(row);
        emit_ref_.push_back(kNullRef);
      }
      break;
    case JoinType::kLeftAnti:
      if (!matched) emit_probe_.push_back(row);
      break;
    case JoinType::kLeftAntiNullAware:
      if (matched) break;
      if (build_rows_ == 0 ||
          (probe_null_[si] == 0 && !build_has_null_key_)) {
        emit_probe_.push_back(row);
      }
      break;
  }
  return static_cast<int64_t>(emit_probe_.size() - before);
}

void HashJoinNode::FlushEmits() {
  if (emit_probe_.empty()) return;
  const size_t probe_sources = probe_.sources.size();
  for (size_t s = 0; s < probe_sources; ++s) {
    const uint64_t* in = probe_.refs[s].data() + probe_begin_;
    std::vector<uint64_t>& dst = out_.refs[s];
    for (const int32_t r : emit_probe_) dst.push_back(in[r]);
  }
  // Build sources exist only for inner/outer joins, which record one build
  // ordinal per output row.
  for (size_t s = probe_sources; s < out_.sources.size(); ++s) {
    const std::vector<uint64_t>& in = build_.refs[s - probe_sources];
    std::vector<uint64_t>& dst = out_.refs[s];
    for (const uint64_t j : emit_ref_) {
      dst.push_back(j == kNullRef ? kNullRef : in[static_cast<size_t>(j)]);
    }
  }
  emit_probe_.clear();
  emit_ref_.clear();
}

int64_t HashJoinNode::ProbeWindow() {
  int64_t emitted = 0;
  while (emitted < RowBatch::kDefaultCapacity) {
    if (probe_pos_ >= probe_batch_.num_rows()) {
      // The recorded rows are relative to the window the load replaces.
      FlushEmits();
      if (probe_next_ >= probe_.num_rows()) break;
      LoadProbeWindow();
    }
    while (probe_pos_ < probe_batch_.num_rows() &&
           emitted < RowBatch::kDefaultCapacity) {
      emitted += ProbeBatchRow(probe_pos_);
      ++probe_pos_;
    }
  }
  FlushEmits();
  return emitted;
}

Status HashJoinNode::NextBatchImpl(RowBatch* out, bool* eof) {
  if (!probe_taken_) NESTRA_RETURN_NOT_OK(TakeProbe());
  for (std::vector<uint64_t>& refs : out_.refs) refs.clear();
  const int64_t n = ProbeWindow();
  out_reader_->AppendRange(0, n, out);
  out->set_num_rows(n);
  *eof = out->empty();
  return Status::OK();
}

Status HashJoinNode::HandOffRefsImpl(RowRefs* out, bool* handed) {
  *handed = vectorized_;
  if (!vectorized_) return Status::OK();
  NESTRA_RETURN_NOT_OK(TakeProbe());
  // Each window is one batch NextBatch would have emitted: count it, and
  // fold the footprint its gather would have had into the peak.
  while (true) {
    const int64_t begin = out_.num_rows();
    const int64_t n = ProbeWindow();
    if (n == 0) break;
    ++stats_.batches_out;
    int64_t bytes = 0;
    for (int c = 0; c < schema_.num_fields(); ++c) {
      bytes += out_reader_->column(c).GatheredByteSize(
          schema_.field(c).type,
          out_.refs[static_cast<size_t>(out_.columns[static_cast<size_t>(c)]
                                            .source)]
                  .data() +
              begin,
          n);
    }
    RecordPeakBytes(bytes);
  }
  out_reader_.reset();
  *out = std::exchange(out_, RowRefs());
  return Status::OK();
}

void HashJoinNode::CloseImpl() {
  stats_.build_rows = build_rows_;
  stats_.probe_rows = probe_count_;
  ReleaseMem(charged_mem_);
  pending_.clear();
  build_reader_.reset();
  build_ = RowRefs();
  build_keys_.Clear();
  probe_reader_.reset();
  probe_ = RowRefs();
  out_reader_.reset();
  out_ = RowRefs();
  flat_hash_.clear();
  flat_head_.clear();
  flat_next_.clear();
  flat_candidates_.clear();
  perfect_built_ = false;
  perfect_head_.clear();
  pair_begin_.clear();
  pair_ref_.clear();
  pair_probe_.clear();
  pair_pass_.clear();
  emit_probe_.clear();
  emit_ref_.clear();
  left_->Close();
  right_->Close();
}

}  // namespace nestra
