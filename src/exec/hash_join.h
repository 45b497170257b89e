#ifndef NESTRA_EXEC_HASH_JOIN_H_
#define NESTRA_EXEC_HASH_JOIN_H_

#include <memory>
#include <string>
#include <vector>

#include "common/hash_key.h"
#include "common/row_batch.h"
#include "common/row_refs.h"
#include "exec/batch_predicate.h"
#include "exec/exec_node.h"
#include "exec/join_hints.h"
#include "exec/join_type.h"
#include "expr/evaluator.h"

namespace nestra {

/// \brief Hash join: builds on the right input, probes with the left.
///
/// The join condition is `AND(equi pairs) AND residual`; the residual (an
/// arbitrary predicate over the concatenated schema) is evaluated per
/// candidate match, so conditions like the paper's
/// `T.K = R.C AND T.L <> S.I` run as a hash join on the equality with the
/// inequality as residual. With no equi pairs the build degenerates into a
/// single bucket (a filtered Cartesian product — the paper's "virtual
/// Cartesian product" for non-correlated subqueries).
///
/// For kInner/kLeftOuter the output schema is left ++ right (right side
/// NULL-padded for unmatched outer rows — this padding is what the nested
/// relational approach later reads as "empty subquery result" via the inner
/// relation's primary key). For semi/anti flavors the output schema is the
/// left schema.
///
/// Key equality follows SQL comparison semantics (common/hash_key.h): an
/// int64 key matches a float64 key of equal numeric value, exactly as the
/// nested-loop join's `Value::Apply(kEq)` would.
///
/// Both inputs are read as row references (RowRefs, DESIGN.md §8): a
/// TableSourceNode child hands its body over in place, any other child is
/// drained into one source. The join copies only the cells it compares:
/// the build's key columns, gathered once and indexed by build arrival
/// ordinal in one flat chained table (or, when the planner hints a dense
/// integer key, a perfect array), every chain listing its rows in arrival
/// order; each probe window's key columns; and the columns a compiled
/// residual reads, per candidate pair. With `num_threads > 1` the build
/// hashes its key columns chunk-parallel; the table and the probe are the
/// same at every thread count. The vectorized probe walks the left input in
/// kDefaultCapacity-row windows in two passes: it first records which rows
/// come out (probe row, build row or NULL pad), then composes each output
/// row's references — the probe row's refs, then the build row's (kNullRef
/// for a pad); semi and anti joins keep just the filtered probe refs.
/// HandOffRefs gives the whole result over as those references, with no
/// cell copied; NextBatch gathers them one output batch at a time. The row
/// probe (`Next`) is the same algorithm over one `Row` at a time and serves
/// as its oracle. Output order is left arrival order, each left row's
/// matches in build arrival order, whatever the engine or thread count.
class HashJoinNode final : public ExecNode {
 public:
  /// With `vectorized` the build and probe inputs are taken by
  /// HandOffRefs or drained via NextBatch (so batch-capable children stay
  /// columnar end-to-end), and the join hands its result over by
  /// reference. Output order and content are identical either way.
  /// `hints` carries the planner's cost-based physical strategy
  /// (exec/join_hints.h): perfect (dense-array) keying. Default hints
  /// reproduce the pre-stats behaviour bit for bit; the perfect hint
  /// changes only the internal table layout, never output rows or their
  /// order.
  HashJoinNode(ExecNodePtr left, ExecNodePtr right, JoinType join_type,
               std::vector<EquiPair> equi, ExprPtr residual,
               int num_threads = 1, bool vectorized = false,
               const JoinBuildHints& hints = {});

  const Schema& output_schema() const override { return schema_; }
  std::string name() const override {
    return std::string("HashJoin[") + JoinTypeToString(join_type_) + "]";
  }
  /// Physical strategy annotation for EXPLAIN ANALYZE ("perfect"); empty
  /// for the default plan.
  std::string detail() const override;
  // The build side is consumed entirely in Open (and probe output begins
  // only after), which is what pins joins to the breaker role.
  PipelineRole role() const override { return PipelineRole::kBreaker; }
  std::vector<ExecNode*> children() const override {
    return {left_.get(), right_.get()};
  }

  /// Number of probe-side rows processed so far (for bench counters).
  int64_t probe_count() const { return probe_count_; }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* out, bool* eof) override;
  Status NextBatchImpl(RowBatch* out, bool* eof) override;
  Status HandOffRefsImpl(RowRefs* out, bool* handed) override;
  void CloseImpl() override;

 private:
  // Takes the right child as references, gathers its key columns and
  // builds the hash table over them.
  Status BuildTable();
  // Takes the left child as references and lays out the output's sources
  // (the vectorized probe's first step).
  Status TakeProbe();
  // Dense-array build over the single equality key; false (no perfect
  // table) when a key violates the hinted [min, max] int range.
  bool TryPerfectBuild();
  // Maps a probe key value to its dense array key; false when the value
  // cannot equal any build key (NULL-free non-integral or out of range).
  bool DenseKeyOf(const Value& v, int64_t* key) const;
  // `left_row` ++ build row `j`.
  Row ConcatBuildRow(const Row& left_row, uint64_t j) const;
  // Appends the ordinals of the build rows on `key`'s perfect-array chain
  // to `out`.
  void PerfectCandidates(int64_t key, std::vector<uint64_t>* out) const;
  // Appends the ordinals of the build rows on hash `h`'s flat chain whose
  // key `key_equal(j)` accepts to `out`, in arrival order.
  template <typename KeyEqual>
  void WalkChain(size_t h, const KeyEqual& key_equal,
                 std::vector<uint64_t>* out) const {
    if (flat_head_.empty()) return;  // empty build
    for (int32_t j = flat_head_[h & flat_mask_]; j >= 0;
         j = flat_next_[static_cast<size_t>(j)]) {
      // Equal keys always hash equal (SqlHash is consistent with
      // TotalOrderCompare), so a hash mismatch can never hide a match.
      if (flat_hash_[static_cast<size_t>(j)] != h) continue;
      if (key_equal(static_cast<size_t>(j))) {
        out->push_back(static_cast<uint64_t>(j));
      }
    }
  }
  // Appends the ordinals of the build rows whose key equals `key`
  // (combined hash `h`) to `out`, in arrival order.
  void GatherCandidates(const std::vector<Value>& key, size_t h,
                        std::vector<uint64_t>* out) const;
  // The same for row `i` of probe_batch_, comparing on the typed arrays;
  // every key column pair must share a typed KeyStorage.
  void GatherCandidatesTyped(int64_t i, size_t h,
                             std::vector<uint64_t>* out) const;
  // Storage class of a key column's cells, for the typed probe compare:
  // int64/date, double and string storage compare as Value::TotalOrderCompare
  // does within one class; a generic column, or a pair of columns of
  // different classes (int = double), compares as Values.
  enum class KeyStorage : uint8_t { kInt, kFloat, kString, kMixed };
  static KeyStorage StorageOf(const ColumnVector& col);
  // Appends every output row produced by one probe row to `out`: matches
  // in build order, then the per-row outer/anti epilogue.
  void ProbeRow(const Row& left_row, std::vector<Row>* out);
  // Loads the next probe window: gathers its key columns into
  // probe_batch_, hashes them, gathers every row's candidate build rows
  // into the pair lists, and runs the compiled residual once over all
  // (probe row, build row) pairs.
  void LoadProbeWindow();
  // Probes row `i` of probe_batch_ and records its output rows in
  // emit_probe_/emit_ref_; returns the number recorded.
  int64_t ProbeBatchRow(int64_t i);
  // Probes until one output batch's worth of rows is recorded (finishing
  // the probe row that crosses kDefaultCapacity) or the probe input ends;
  // appends their references to out_ and returns how many.
  int64_t ProbeWindow();
  // Composes the recorded output rows' references onto out_'s ref columns
  // and clears the record.
  void FlushEmits();
  // Accounts `bytes` of build/probe state against OperatorStats and the
  // current query tracker (ResourceExhausted past the soft limit); called
  // serially, never from the parallel key hashing.
  Status ChargeMem(int64_t bytes);
  // Returns previously charged bytes (peak stays).
  void ReleaseMem(int64_t bytes);

  ExecNodePtr left_;
  ExecNodePtr right_;
  JoinType join_type_;
  std::vector<EquiPair> equi_;
  ExprPtr residual_;
  int num_threads_ = 1;
  JoinBuildHints hints_;

  Schema schema_;
  int right_width_ = 0;

  std::vector<int> left_key_idx_;
  std::vector<int> right_key_idx_;
  Schema residual_schema_;         // left ++ right, unpadded
  BoundPredicate bound_residual_;  // over residual_schema_
  // The residual compiled to batch kernels (streaming vectorized probe);
  // when it does not compile, that probe judges each pair on the
  // concatenated row instead.
  VectorizedPredicate residual_vec_;
  bool residual_compiled_ = false;
  std::vector<int> residual_cols_;

  // The build input as references; build row j is its row j. Every table
  // layout below indexes build rows by that ordinal. build_keys_ holds the
  // build's key columns gathered once (its other columns stay empty).
  RowRefs build_;
  std::unique_ptr<RefReader> build_reader_;
  RowBatch build_keys_;
  std::vector<int> build_key_cols_;  // distinct right_key_idx_

  // Per equality key, the KeyStorage of the gathered build key column.
  std::vector<KeyStorage> build_key_storage_;

  bool build_has_null_key_ = false;  // for kLeftAntiNullAware
  int64_t build_rows_ = 0;

  // Flat chained hash table: buckets are index chains (flat_head_ per
  // bucket, flat_next_ per build row) kept in arrival order, with no
  // node/key/bucket allocation per insert. Empty when the build is empty
  // or perfect.
  std::vector<size_t> flat_hash_;
  std::vector<int32_t> flat_head_;
  std::vector<int32_t> flat_next_;
  size_t flat_mask_ = 0;
  // One probe row's key-equal candidates (row probe), as build ordinals.
  std::vector<uint64_t> flat_candidates_;

  // Perfect (dense-array) table: each array slot heads an arrival-order
  // index chain through flat_next_ — direct indexing by key - perfect_min,
  // no hashing. Engages only when TryPerfectBuild validated every build
  // key against the hinted range.
  bool perfect_built_ = false;
  std::vector<int32_t> perfect_head_;

  // Row-probe state: pending_ holds one probe row's not-yet-emitted
  // outputs.
  std::vector<Row> pending_;
  size_t pending_pos_ = 0;
  bool left_done_ = false;
  int64_t probe_count_ = 0;
  // Bytes currently charged to the query tracker (released in CloseImpl).
  int64_t charged_mem_ = 0;

  // Vectorized probe state. The probe input as references, and the
  // current window: rows [probe_begin_, probe_next_) of it, whose key
  // columns probe_batch_ holds (its other columns stay empty). Probe row
  // i's candidate build ordinals are pair_ref_[pair_begin_[i] ..
  // pair_begin_[i + 1]); pair_probe_ repeats the probe ordinal once per
  // candidate for the residual's pair batch, and pair_pass_ flags the
  // pairs the compiled residual accepted.
  bool vectorized_ = false;
  bool probe_taken_ = false;
  RowRefs probe_;
  std::unique_ptr<RefReader> probe_reader_;
  std::vector<int> probe_key_cols_;  // distinct left_key_idx_
  int64_t probe_begin_ = 0;
  int64_t probe_next_ = 0;
  RowBatch probe_batch_;
  std::vector<size_t> probe_hashes_;
  std::vector<uint8_t> probe_null_;
  int64_t probe_pos_ = 0;
  std::vector<Value> scratch_key_;
  std::vector<int32_t> pair_begin_;
  std::vector<uint64_t> pair_ref_;
  std::vector<uint64_t> pair_probe_;
  std::vector<uint8_t> pair_pass_;
  std::vector<int32_t> pair_sel_;
  RowBatch pair_batch_;
  // Output rows recorded but not yet composed: probe_batch_ row per output
  // row, and for inner/outer joins the build ordinal (kNullRef for a pad).
  std::vector<int32_t> emit_probe_;
  std::vector<uint64_t> emit_ref_;
  // The output as references: the probe's sources, then (inner/outer
  // joins) the build's. HandOffRefs fills it whole; NextBatch one batch at
  // a time, gathered through out_reader_.
  RowRefs out_;
  std::unique_ptr<RefReader> out_reader_;
};

}  // namespace nestra

#endif  // NESTRA_EXEC_HASH_JOIN_H_
