#ifndef NESTRA_NESTED_FUSED_NEST_SELECT_H_
#define NESTRA_NESTED_FUSED_NEST_SELECT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/exec_node.h"
#include "exec/sort.h"
#include "nested/linking_predicate.h"
#include "nested/linking_selection.h"

namespace nestra {

/// \brief One nesting level of the fused evaluator. Levels are listed
/// outermost first; each level's `nesting_attrs` must be a superset of the
/// previous level's (the paper's observation that "higher levels nest by a
/// prefix of the nesting attributes used by lower levels", §4.2.1), and the
/// input stream must be sorted by the innermost level's nesting attributes.
///
/// The linking predicate's attribute names all refer to columns of the flat
/// input schema: `linking_attr` must be functionally determined by this
/// level's nesting attributes, and `linked_attr`/`member_key_attr` by the
/// next level's (they are read from the representative row of the inner
/// group when it closes).
struct FusedLevelSpec {
  std::vector<std::string> nesting_attrs;
  LinkingPredicate pred;
  SelectionMode mode = SelectionMode::kPseudo;
  /// Outermost level only: in kPseudo mode a failing group is still emitted,
  /// with these columns (names within `nesting_attrs`) nulled — the
  /// streaming form of the pseudo-selection, used when the fused evaluator
  /// runs as one stage of a larger (tree-query) pipeline. Inner levels need
  /// no pad list: a failing inner group simply contributes no member.
  std::vector<std::string> pad_attrs;
};

/// \brief The optimized nested relational evaluator: all nest operations in
/// a single (external) sort, then one streaming pass that pipelines every
/// nest with its linking selection (§4.2.1 + §4.2.2).
///
/// Group boundaries are detected by key-prefix change; when an inner group
/// closes, its predicate result decides whether the group contributes a
/// member to the enclosing level:
///  * result TRUE  -> contributes (member key, linked value) read from the
///                    group's representative row;
///  * otherwise    -> contributes nothing. (For a pseudo-selection this is
///    the NULL-padded member whose NULL key excludes it from the
///    quantification; for a strict selection the tuple is dropped — in the
///    streaming form both reduce to "no member", and the outer group still
///    exists because its rows were seen. The two modes therefore coincide
///    here, which is exactly why the paper restricts strict mode to
///    positions where the distinction cannot matter.)
///
/// The outermost level emits its nesting-attribute prefix for groups whose
/// predicate is TRUE. Output schema = outermost nesting attributes.
///
/// Two protocols, one result. Next pulls sorted rows from the child and
/// keeps each open group's representative row (the row oracle). NextBatch,
/// when the child is the SortNode, takes the sort's SortedRun by
/// SortNode::HandOff and walks its permutation once, in place (late
/// materialization, §4.2.1–4.2.2): a group boundary is a KeyColumn::Compare
/// of adjacent permuted ordinals on the keys the level adds to its
/// enclosing level's; the linking, linked and member-key cells are read
/// from typed input-order columns (the sort's key columns, or gathered
/// here once for columns that are not sort keys); only a generic or
/// mixed-storage column goes through Values. An open group holds just its
/// representative's sorted position; an emitted root group records that
/// row's input ordinal (and, in pseudo mode, whether it is padded), and
/// each output column is one gather through the run's row references
/// (RefReader::AppendAt) at those ordinals, a padded cell being a
/// kNullRef. The permutation is walked in
/// RowBatch::kDefaultCapacity windows, one window per round until a round
/// emits a row, so the output batches are exactly those of a pass over the
/// sort's NextBatch stream. Accounting: the stage's bytes are the sort's
/// drained input (charged once, at the sort's Open) plus this node's
/// largest output batch and the result; the sort builds no output batch.
/// With any other child, NextBatch runs the row protocol through the row
/// adapter.
class FusedNestSelectNode final : public ExecNode {
 public:
  /// `child` must produce rows sorted by `levels.back().nesting_attrs`.
  FusedNestSelectNode(ExecNodePtr child, std::vector<FusedLevelSpec> levels);
  /// The same over a SortNode, whose result NextBatch reads in place.
  FusedNestSelectNode(std::unique_ptr<SortNode> sort,
                      std::vector<FusedLevelSpec> levels);

  const Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "FusedNestSelect"; }
  PipelineRole role() const override {
    return PipelineRole::kSerialStreaming;
  }
  std::string detail() const override;
  std::vector<ExecNode*> children() const override { return {child_.get()}; }

  /// Groups closed at each level so far (bench counter; index 0 = outermost).
  const std::vector<int64_t>& groups_closed() const { return groups_closed_; }

 protected:
  Status OpenImpl() override;
  Status NextImpl(Row* out, bool* eof) override;
  Status NextBatchImpl(RowBatch* out, bool* eof) override;
  void CloseImpl() override;

 private:
  struct LevelState {
    std::vector<int> key_idx;    // group key columns (flat schema)
    int linking_idx = -1;        // pred's outer attribute (flat schema)
    int linked_idx = -1;         // pred's member attribute (flat schema)
    int member_key_idx = -1;     // pred's member primary key (flat schema)
    std::vector<int> pad_idx;    // output positions to null on pseudo fail
    LinkingAccumulator acc;
    Row rep;                     // representative (first) row of open group

    // Batch pass: the typed input-order columns of this level's new group
    // keys (those its enclosing level lacks), linking, linked and member
    // key attributes (null when absent) and the open group's
    // representative's position in the permutation. The open group's
    // linking value lives in `acc` alone.
    std::vector<const KeyColumn*> new_keys;
    const KeyColumn* linking_col = nullptr;
    const KeyColumn* linked_col = nullptr;
    const KeyColumn* member_key_col = nullptr;
    size_t rep_pos = 0;
  };

  // Closes level `i`, feeding the member upward or emitting at level 0.
  // Returns true if an output row was produced (stored in pending_).
  bool FinalizeLevel(int i);

  // Opens a group at level `i` with `row` as representative.
  void OpenLevel(int i, const Row& row);

  // Batch pass over the sort's SortedRun (see the class comment).
  // Takes the run from the sort and resolves every level's columns.
  void BindRun();
  // The typed input-order column of flat column `idx`: the sort's key
  // column when `idx` is a sort key, else gathered once into own_cols_.
  const KeyColumn* ColumnFor(int idx);
  // Steps the pass over sorted position `p`.
  void StepPosition(size_t p);
  void OpenGroup(int i, size_t p);
  void CloseGroup(int i);
  // Feeds input row `ordinal` as a member of level `i`'s open group.
  void AddMember(int i, uint32_t ordinal);
  // Gathers the root groups recorded by CloseGroup into `out`.
  void EmitGroups(RowBatch* out);

  ExecNodePtr child_;
  SortNode* sort_ = nullptr;  // child_ when it is the sort, else null
  std::vector<FusedLevelSpec> specs_;
  Schema schema_;
  std::vector<int> output_idx_;  // outermost nesting attrs in flat schema

  std::vector<LevelState> levels_;
  Row prev_row_;
  bool has_prev_ = false;
  bool input_done_ = false;
  bool pending_valid_ = false;
  Row pending_;
  std::vector<int64_t> groups_closed_;

  // Batch-pass state: the sort's run, the next permuted position, columns
  // gathered here, and the emitted root groups (input ordinal of the
  // representative row; pad flag) not yet gathered into output columns.
  const SortedRun* run_ = nullptr;
  size_t pos_ = 0;
  std::map<int, KeyColumn> own_cols_;
  std::vector<uint64_t> emit_ord_;
  std::vector<uint8_t> emit_pad_;
  std::vector<uint64_t> pad_ords_;
};

}  // namespace nestra

#endif  // NESTRA_NESTED_FUSED_NEST_SELECT_H_
