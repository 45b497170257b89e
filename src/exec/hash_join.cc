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

// Writes one SqlHash key combine per row of `batch` to hashes[0..n) and
// the rows' NULL-key flags to nulls[0..n), column-at-a-time. Byte-identical
// to SqlKeyHashOn over the materialized rows (kFnvOffsetBasis, then per key
// column h ^= SqlHash; h *= kFnvPrime). With `nulls_only` just the flags.
void HashKeyColumns(const RowBatch& batch, const std::vector<int>& key_idx,
                    bool nulls_only, size_t* hashes, uint8_t* nulls) {
  constexpr size_t kNullHash = 0x9e3779b97f4a7c15ULL;
  constexpr size_t kNumericMix = 0xc4ceb9fe1a85ec53ULL;
  const size_t n = static_cast<size_t>(batch.num_rows());
  std::fill(nulls, nulls + n, uint8_t{0});
  std::fill(hashes, hashes + n, nulls_only ? size_t{0} : kFnvOffsetBasis);
  for (const int idx : key_idx) {
    const ColumnVector& col = batch.column(idx);
    const std::vector<uint8_t>& col_nulls = col.nulls();
    if (nulls_only) {
      for (size_t i = 0; i < n; ++i) {
        if (col_nulls[i] != 0) nulls[i] = 1;
      }
      continue;
    }
    const bool generic = col.generic();
    for (size_t i = 0; i < n; ++i) {
      size_t vh = 0;
      if (col_nulls[i] != 0) {
        nulls[i] = 1;
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
      hashes[i] ^= vh;
      hashes[i] *= kFnvPrime;
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

  pending_.clear();
  pending_pos_ = 0;
  left_done_ = false;
  probe_count_ = 0;
  probe_batch_.Clear();
  probe_pos_ = 0;
  return BuildTable();
}

Status HashJoinNode::BuildTable() {
  build_has_null_key_ = false;
  build_rows_ = 0;
  perfect_built_ = false;
  perfect_head_.clear();
  flat_head_.clear();
  build_batches_.clear();
  build_refs_.clear();

  // Drain the child serially (Next/NextBatch is a serial protocol), then
  // hash the drained batches' key columns in parallel.
  int64_t build_bytes = 0;
  NESTRA_RETURN_NOT_OK(DrainAllBatches(right_.get(), vectorized_,
                                       &build_batches_, &build_bytes));
  NESTRA_RETURN_NOT_OK(ChargeMem(build_bytes));
  const int64_t num_batches = static_cast<int64_t>(build_batches_.size());
  std::vector<size_t> offsets(build_batches_.size() + 1, 0);
  for (size_t b = 0; b < build_batches_.size(); ++b) {
    const int64_t rows = build_batches_[b].num_rows();
    offsets[b + 1] = offsets[b] + static_cast<size_t>(rows);
    for (int64_t r = 0; r < rows; ++r) build_refs_.push_back(PackRowRef(b, r));
  }
  build_rows_ = static_cast<int64_t>(build_refs_.size());

  const int64_t n = build_rows_;
  if (n == 0) return Status::OK();

  std::vector<size_t> hashes(static_cast<size_t>(n));
  std::vector<uint8_t> has_null(static_cast<size_t>(n), 0);
  const auto hash_keys = [&](bool nulls_only) {
    ParallelForEach(num_batches, num_threads_, [&](int64_t b) {
      const size_t sb = static_cast<size_t>(b);
      HashKeyColumns(build_batches_[sb], right_key_idx_, nulls_only,
                     hashes.data() + offsets[sb],
                     has_null.data() + offsets[sb]);
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
  const int key_idx = right_key_idx_[0];
  perfect_head_.assign(static_cast<size_t>(span), -1);
  flat_next_.assign(static_cast<size_t>(build_rows_), -1);
  // One pass per build batch checks each key and inserts it: every
  // non-NULL build key must be an int64 inside the hinted range. Load-time
  // stats guarantee this for immutable catalog tables; anything else (a
  // stale hint) degrades to the flat build, never to wrong results.
  // Batches and rows run in reverse, like the flat build: push-front then
  // leaves every chain in arrival order.
  int64_t j = build_rows_;
  for (size_t b = build_batches_.size(); b-- > 0;) {
    const ColumnVector& col = build_batches_[b].column(key_idx);
    const std::vector<uint8_t>& nulls = col.nulls();
    const bool ints = !col.generic() && (col.type() == TypeId::kInt64 ||
                                         col.type() == TypeId::kDate);
    for (int64_t r = build_batches_[b].num_rows() - 1; r >= 0; --r) {
      --j;
      if (nulls[static_cast<size_t>(r)] != 0) continue;
      bool is_int = ints;
      int64_t key = 0;
      if (ints) {
        key = col.ints()[static_cast<size_t>(r)];
      } else {
        const Value v = col.GetValue(r);
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

Row HashJoinNode::ConcatBuildRow(const Row& left_row, uint64_t ref) const {
  const RowBatch& batch = build_batches_[RefBatch(ref)];
  const int64_t r = RefRow(ref);
  std::vector<Value> values;
  values.reserve(static_cast<size_t>(left_row.size() + right_width_));
  values.insert(values.end(), left_row.values().begin(),
                left_row.values().end());
  for (int c = 0; c < right_width_; ++c) {
    values.push_back(batch.column(c).GetValue(r));
  }
  return Row(std::move(values));
}

void HashJoinNode::PerfectCandidates(int64_t key,
                                     std::vector<uint64_t>* out) const {
  for (int32_t j = perfect_head_[static_cast<size_t>(key -
                                                     hints_.perfect_min)];
       j >= 0; j = flat_next_[static_cast<size_t>(j)]) {
    out->push_back(build_refs_[static_cast<size_t>(j)]);
  }
}

void HashJoinNode::GatherCandidates(const std::vector<Value>& key, size_t h,
                                    std::vector<uint64_t>* out) const {
  if (flat_head_.empty()) return;  // empty build
  for (int32_t j = flat_head_[h & flat_mask_]; j >= 0;
       j = flat_next_[static_cast<size_t>(j)]) {
    // Equal keys always hash equal (SqlHash is consistent with
    // TotalOrderCompare), so a hash mismatch can never hide a match.
    if (flat_hash_[static_cast<size_t>(j)] != h) continue;
    bool equal = true;
    for (size_t k = 0; k < right_key_idx_.size(); ++k) {
      const Value cell = BuildValue(j, right_key_idx_[k]);
      if (Value::TotalOrderCompare(key[k], cell) != 0) {
        equal = false;
        break;
      }
    }
    if (equal) out->push_back(build_refs_[static_cast<size_t>(j)]);
  }
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

void HashJoinNode::LoadProbeBatch() {
  const int64_t n = probe_batch_.num_rows();
  const size_t sn = static_cast<size_t>(n);
  probe_hashes_.resize(sn);
  probe_null_.resize(sn);
  // The perfect probe indexes by value, not hash — only the NULL flags
  // are needed. Skipping the hash pass is most of the perfect join's win
  // on the batch path.
  HashKeyColumns(probe_batch_, left_key_idx_, /*nulls_only=*/perfect_built_,
                 probe_hashes_.data(), probe_null_.data());

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
    scratch_key_.clear();
    for (const int idx : left_key_idx_) {
      scratch_key_.push_back(probe_batch_.column(idx).GetValue(i));
    }
    GatherCandidates(scratch_key_, probe_hashes_[si], &pair_ref_);
  }
  pair_begin_[sn] = static_cast<int32_t>(pair_ref_.size());
  if (!residual_compiled_ || pair_ref_.empty()) return;

  // The residual runs once over every candidate pair of the batch: gather
  // the columns it reads (probe cells repeated per pair, build cells by
  // reference) into one combined batch and select the survivors.
  pair_probe_.clear();
  for (size_t i = 0; i < sn; ++i) {
    pair_probe_.resize(static_cast<size_t>(pair_begin_[i + 1]),
                       static_cast<int32_t>(i));
  }
  const int left_width = probe_batch_.num_columns();
  const int64_t num_pairs = static_cast<int64_t>(pair_ref_.size());
  pair_batch_.Reset(residual_schema_);
  for (const int c : residual_cols_) {
    ColumnVector& dst = pair_batch_.column(c);
    if (c < left_width) {
      dst.AppendSelection(probe_batch_.column(c), pair_probe_);
    } else {
      dst.AppendRefs(build_batches_, c - left_width, pair_ref_.data(),
                     num_pairs);
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
  // either way only the decision is made per pair, and FlushEmits gathers
  // the output columns.
  Row left_row;
  if (!no_residual && !residual_compiled_ && begin < end) {
    left_row = probe_batch_.MaterializeRow(i);
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

void HashJoinNode::FlushEmits(RowBatch* out) {
  if (emit_probe_.empty()) return;
  const int left_width = probe_batch_.num_columns();
  for (int c = 0; c < left_width; ++c) {
    out->column(c).AppendSelection(probe_batch_.column(c), emit_probe_);
  }
  // Right columns exist only for inner/outer joins, which record one
  // reference per output row.
  for (int c = left_width; c < out->num_columns(); ++c) {
    out->column(c).AppendRefs(build_batches_, c - left_width,
                              emit_ref_.data(),
                              static_cast<int64_t>(emit_ref_.size()));
  }
  emit_probe_.clear();
  emit_ref_.clear();
}

Status HashJoinNode::NextBatchImpl(RowBatch* out, bool* eof) {
  int64_t emitted = 0;
  while (emitted < RowBatch::kDefaultCapacity) {
    if (probe_pos_ >= probe_batch_.num_rows()) {
      if (left_done_) break;
      // The recorded rows read the probe batch the next load overwrites.
      FlushEmits(out);
      bool left_eof = false;
      NESTRA_RETURN_NOT_OK(left_->NextBatch(&probe_batch_, &left_eof));
      if (left_eof) {
        left_done_ = true;
        break;
      }
      probe_pos_ = 0;
      probe_count_ += probe_batch_.num_rows();
      LoadProbeBatch();
    }
    while (probe_pos_ < probe_batch_.num_rows() &&
           emitted < RowBatch::kDefaultCapacity) {
      emitted += ProbeBatchRow(probe_pos_);
      ++probe_pos_;
    }
  }
  FlushEmits(out);
  out->set_num_rows(emitted);
  *eof = out->empty();
  return Status::OK();
}

void HashJoinNode::CloseImpl() {
  stats_.build_rows = build_rows_;
  stats_.probe_rows = probe_count_;
  ReleaseMem(charged_mem_);
  pending_.clear();
  build_batches_.clear();
  build_refs_.clear();
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
