#ifndef NESTRA_EXEC_JOIN_HINTS_H_
#define NESTRA_EXEC_JOIN_HINTS_H_

#include <cstdint>

namespace nestra {

/// \brief Planner-chosen physical strategy for one hash join, derived from
/// table statistics (src/plan/stats/estimator.h). Plain data with inert
/// defaults: a default-constructed hints object reproduces the pre-stats
/// behaviour bit for bit (the generic chained table). The build side is
/// always the right input.
///
/// The join treats every field as advisory-but-checked: `perfect` only
/// engages when the single-equi-key precondition holds at Open, and the
/// build falls back to the generic table if any runtime key lands outside
/// [perfect_min, perfect_max] — so a stale or wrong estimate can cost time,
/// never correctness.
struct JoinBuildHints {
  /// Use a dense direct-index array instead of a hash table: build keys are
  /// integers spanning [perfect_min, perfect_max]. Bounds come from exact
  /// load-time column min/max, so only re-registration (which bumps
  /// TableVersion) can invalidate them.
  bool perfect = false;
  int64_t perfect_min = 0;
  int64_t perfect_max = 0;

  /// Estimated input cardinalities (rows; < 0 = unknown), recorded for
  /// EXPLAIN est-vs-actual output.
  double est_left_rows = -1.0;
  double est_right_rows = -1.0;

  bool IsDefault() const { return !perfect; }
};

}  // namespace nestra

#endif  // NESTRA_EXEC_JOIN_HINTS_H_
