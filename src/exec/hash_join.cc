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

// Packed reference to row `r` of batch `b`: (b << 32) | r.
uint64_t BuildRef(size_t b, int64_t r) {
  return (static_cast<uint64_t>(b) << 32) | static_cast<uint64_t>(r);
}

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
    for (int64_t r = 0; r < rows; ++r) build_refs_.push_back(BuildRef(b, r));
  }
  build_rows_ = static_cast<int64_t>(build_refs_.size());

  const int64_t n = build_rows_;
  if (n == 0) return Status::OK();

  std::vector<size_t> hashes(static_cast<size_t>(n));
  std::vector<uint8_t> has_null(static_cast<size_t>(n), 0);
  ParallelForEach(num_batches, num_threads_, [&](int64_t b) {
    const size_t sb = static_cast<size_t>(b);
    HashKeyColumns(build_batches_[sb], right_key_idx_, /*nulls_only=*/false,
                   hashes.data() + offsets[sb], has_null.data() + offsets[sb]);
  });
  // NULL keys never match; the null-aware antijoin still needs to know
  // whether the build side holds one.
  build_has_null_key_ =
      std::find(has_null.begin(), has_null.end(), uint8_t{1}) != has_null.end();

  // Perfect (dense-array) keying: single equality key over a hinted dense
  // int range. Validated against the actual rows, so a wrong hint falls
  // through to the flat build below instead of corrupting results.
  if (hints_.perfect && equi_.size() == 1 && TryPerfectBuild(has_null)) {
    return ChargeMem(
        static_cast<int64_t>(perfect_head_.size() * sizeof(int32_t) +
                             flat_next_.size() * sizeof(int32_t)));
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

bool HashJoinNode::TryPerfectBuild(const std::vector<uint8_t>& has_null) {
  const int64_t n = build_rows_;
  const int64_t min = hints_.perfect_min;
  const int64_t max = hints_.perfect_max;
  if (max < min) return false;
  const int64_t span = max - min + 1;  // the estimator caps this at 2^22
  const int key_idx = right_key_idx_[0];
  // Validate before committing: every non-NULL build key must be an int64
  // inside the hinted range. Load-time stats guarantee this for immutable
  // catalog tables; anything else (a stale hint) degrades to the generic
  // build, never to wrong results.
  for (int64_t i = 0; i < n; ++i) {
    if (has_null[static_cast<size_t>(i)] != 0) continue;
    const Value v = BuildValue(static_cast<int32_t>(i), key_idx);
    if (!v.is_int() || v.int64() < min || v.int64() > max) return false;
  }
  perfect_built_ = true;
  perfect_head_.assign(static_cast<size_t>(span), -1);
  flat_next_.assign(static_cast<size_t>(n), -1);
  // Reverse insertion order, like the flat build: push-front leaves every
  // chain in arrival order, so candidate order matches the flat table.
  for (int64_t i = n - 1; i >= 0; --i) {
    const size_t si = static_cast<size_t>(i);
    if (has_null[si] != 0) continue;
    const size_t slot = static_cast<size_t>(
        BuildValue(static_cast<int32_t>(i), key_idx).int64() - min);
    flat_next_[si] = perfect_head_[slot];
    perfect_head_[slot] = static_cast<int32_t>(i);
  }
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

Row HashJoinNode::ConcatBuildRow(const Row& left_row, int32_t j) const {
  const uint64_t ref = build_refs_[static_cast<size_t>(j)];
  const RowBatch& batch = build_batches_[ref >> 32];
  const int64_t r = static_cast<int64_t>(ref & 0xffffffffU);
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
                                     std::vector<int32_t>* out) const {
  for (int32_t j = perfect_head_[static_cast<size_t>(key -
                                                     hints_.perfect_min)];
       j >= 0; j = flat_next_[static_cast<size_t>(j)]) {
    out->push_back(j);
  }
}

void HashJoinNode::GatherCandidates(const std::vector<Value>& key, size_t h,
                                    std::vector<int32_t>* out) const {
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
    if (equal) out->push_back(j);
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
  for (const int32_t j : flat_candidates_) {
    Row combined = ConcatBuildRow(left_row, j);
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
  pair_build_.clear();
  for (int64_t i = 0; i < n; ++i) {
    const size_t si = static_cast<size_t>(i);
    pair_begin_[si] = static_cast<int32_t>(pair_build_.size());
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
      if (in_range) PerfectCandidates(key, &pair_build_);
      continue;
    }
    scratch_key_.clear();
    for (const int idx : left_key_idx_) {
      scratch_key_.push_back(probe_batch_.column(idx).GetValue(i));
    }
    GatherCandidates(scratch_key_, probe_hashes_[si], &pair_build_);
  }
  pair_begin_[sn] = static_cast<int32_t>(pair_build_.size());
  if (!residual_compiled_ || pair_build_.empty()) return;

  // The residual runs once over every candidate pair of the batch: gather
  // the columns it reads (probe cells repeated per pair, build cells by
  // reference) into one combined batch and select the survivors.
  const int left_width = probe_batch_.num_columns();
  pair_batch_.Reset(residual_schema_);
  for (const int c : residual_cols_) {
    ColumnVector& dst = pair_batch_.column(c);
    if (c < left_width) {
      const ColumnVector& src = probe_batch_.column(c);
      for (int64_t i = 0; i < n; ++i) {
        const size_t si = static_cast<size_t>(i);
        for (int32_t k = pair_begin_[si]; k < pair_begin_[si + 1]; ++k) {
          dst.AppendFrom(src, i);
        }
      }
      continue;
    }
    for (const int32_t j : pair_build_) {
      const uint64_t ref = build_refs_[static_cast<size_t>(j)];
      dst.AppendFrom(build_batches_[ref >> 32].column(c - left_width),
                     static_cast<int64_t>(ref & 0xffffffffU));
    }
  }
  pair_batch_.set_num_rows(static_cast<int64_t>(pair_build_.size()));
  residual_vec_.Select(pair_batch_, &pair_sel_);
  pair_pass_.assign(pair_build_.size(), 0);
  for (const int32_t k : pair_sel_) pair_pass_[static_cast<size_t>(k)] = 1;
}

int64_t HashJoinNode::ProbeBatchRow(int64_t i, RowBatch* out) {
  const size_t si = static_cast<size_t>(i);
  const bool probe_null = probe_null_[si] != 0;
  const int32_t begin = pair_begin_[si];
  const int32_t end = pair_begin_[si + 1];

  const int left_width = probe_batch_.num_columns();
  int64_t emitted = 0;
  bool matched = false;
  const bool combining = join_type_ == JoinType::kInner ||
                         join_type_ == JoinType::kLeftOuter;
  const bool no_residual = bound_residual_.always_true();
  if (begin < end) {
    if (combining && (no_residual || residual_compiled_)) {
      // Hot path: left cells copy from the probe batch, right cells from
      // the build batches, typed storage to typed storage.
      for (int32_t k = begin; k < end; ++k) {
        if (!no_residual && pair_pass_[static_cast<size_t>(k)] == 0) continue;
        matched = true;
        const uint64_t ref =
            build_refs_[static_cast<size_t>(pair_build_[static_cast<size_t>(k)])];
        const RowBatch& build = build_batches_[ref >> 32];
        const int64_t r = static_cast<int64_t>(ref & 0xffffffffU);
        for (int c = 0; c < left_width; ++c) {
          out->column(c).AppendFrom(probe_batch_.column(c), i);
        }
        for (int c = 0; c < right_width_; ++c) {
          out->column(left_width + c).AppendFrom(build.column(c), r);
        }
        ++emitted;
      }
    } else if (combining) {
      // Uncompiled residual: judge each candidate on the concatenated row.
      const Row left_row = probe_batch_.MaterializeRow(i);
      for (int32_t k = begin; k < end; ++k) {
        Row combined =
            ConcatBuildRow(left_row, pair_build_[static_cast<size_t>(k)]);
        if (!bound_residual_.Matches(combined)) continue;
        matched = true;
        NESTRA_DCHECK(combined.size() == schema_.num_fields());
        for (int c = 0; c < combined.size(); ++c) {
          out->column(c).Append(std::move(combined[c]));
        }
        ++emitted;
      }
    } else if (no_residual) {
      matched = true;
    } else if (residual_compiled_) {
      for (int32_t k = begin; k < end && !matched; ++k) {
        matched = pair_pass_[static_cast<size_t>(k)] != 0;
      }
    } else {
      const Row left_row = probe_batch_.MaterializeRow(i);
      for (int32_t k = begin; k < end && !matched; ++k) {
        matched = bound_residual_.Matches(
            ConcatBuildRow(left_row, pair_build_[static_cast<size_t>(k)]));
      }
    }
  }

  // Per-row epilogue, mirroring ProbeRow exactly.
  bool emit_left_only = false;
  switch (join_type_) {
    case JoinType::kInner:
      break;
    case JoinType::kLeftSemi:
      emit_left_only = matched;
      break;
    case JoinType::kLeftOuter:
      if (!matched) {
        for (int c = 0; c < left_width; ++c) {
          out->column(c).AppendFrom(probe_batch_.column(c), i);
        }
        for (int c = 0; c < right_width_; ++c) {
          out->column(left_width + c).AppendNull();
        }
        ++emitted;
      }
      break;
    case JoinType::kLeftAnti:
      emit_left_only = !matched;
      break;
    case JoinType::kLeftAntiNullAware:
      if (matched) break;
      if (build_rows_ == 0) {
        emit_left_only = true;
        break;
      }
      emit_left_only = !probe_null && !build_has_null_key_;
      break;
  }
  if (emit_left_only) {
    for (int c = 0; c < left_width; ++c) {
      out->column(c).AppendFrom(probe_batch_.column(c), i);
    }
    ++emitted;
  }
  return emitted;
}

Status HashJoinNode::NextBatchImpl(RowBatch* out, bool* eof) {
  int64_t emitted = 0;
  while (emitted < RowBatch::kDefaultCapacity) {
    if (probe_pos_ >= probe_batch_.num_rows()) {
      if (left_done_) break;
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
      emitted += ProbeBatchRow(probe_pos_, out);
      ++probe_pos_;
    }
  }
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
  pair_build_.clear();
  pair_pass_.clear();
  left_->Close();
  right_->Close();
}

}  // namespace nestra
