#ifndef NESTRA_VERIFY_PROPERTIES_H_
#define NESTRA_VERIFY_PROPERTIES_H_

#include <map>
#include <string>
#include <vector>

#include "common/value.h"
#include "plan/query_block.h"
#include "storage/catalog.h"

namespace nestra {

/// \brief Nullability lattice for one attribute (DESIGN.md §10). kNullable
/// is the no-knowledge element; kNonNull and kAlwaysNull are the two proven
/// extremes. Facts follow Guagliardo/Libkin's algebraic NULL semantics: a
/// comparison conjunct proves its column operands non-NULL among qualifying
/// rows (an UNKNOWN comparison never qualifies), IS NULL proves always-NULL,
/// IS NOT NULL proves non-NULL.
enum class Nullability { kNullable, kNonNull, kAlwaysNull };

const char* NullabilityToString(Nullability n);

/// \brief Bound on a block's qualifying-set cardinality: kZero (provably
/// empty — e.g. a comparison against a NULL literal or type-incomparable
/// operands is always UNKNOWN), kAtMostOne (a key is pinned by equalities),
/// or kMany (no bound).
enum class CardBound { kZero, kAtMostOne, kMany };

const char* CardBoundToString(CardBound c);

struct AttributeProps {
  Nullability nullability = Nullability::kNullable;
  TypeId type = TypeId::kInt64;
};

/// \brief Facts inferred for one query block's base relation after its local
/// predicate σ_i. Attribute names are qualified "alias.column".
struct BlockProperties {
  int block_id = 0;
  std::map<std::string, AttributeProps> attrs;
  /// Schema order of `attrs` keys (maps are sorted; rendering wants schema
  /// order).
  std::vector<std::string> attr_order;
  /// Attribute sets that are unique keys of the filtered base relation (one
  /// compound key per block when every FROM table declares a primary key).
  std::vector<std::vector<std::string>> keys;
  CardBound card = CardBound::kMany;

  bool NonNull(const std::string& attr) const;
  bool AlwaysNull(const std::string& attr) const;

  /// "non-null={r.c, r.d} nullable={r.a, r.b} keys={r.d} card=many" — one
  /// line, no trailing newline. always-null printed only when non-empty.
  std::string ToString() const;
};

/// \brief Facts about one block's linking predicate toward its parent.
struct LinkFacts {
  /// The member comparison (linking side θ linked side) can never evaluate
  /// to UNKNOWN: both operands proven non-NULL and type-comparable. EXISTS
  /// and NOT EXISTS have no member comparison and are trivially two-valued.
  bool two_valued = false;
  /// The member comparison can never be TRUE or FALSE — always UNKNOWN
  /// (an operand is provably NULL, or the operand types are incomparable).
  bool always_unknown = false;
  /// Human-readable justification (two_valued) or obstruction (otherwise).
  std::string reason;
};

/// \brief Bottom-up property inference over bound query blocks.
///
/// Nullability seeds from the catalog: declared NOT NULL constraints
/// (primary keys and `not_null_columns`) plus the load-time observed
/// non-NULL column scans (sound for execution because catalog tables are
/// immutable once registered). Pass `declared_only` to restrict seeding to
/// declared constraints, for conclusions that must stay valid when the data
/// changes.
class PropertyAnalyzer {
 public:
  explicit PropertyAnalyzer(const Catalog& catalog, bool declared_only = false)
      : catalog_(catalog), declared_only_(declared_only) {}

  /// Properties of `block`'s base relation after σ_i and the correlated
  /// predicates C_ij (both run before the linking selection; an UNKNOWN
  /// conjunct excludes the row from every qualifying set and group, so
  /// comparison conjuncts prove their local operands non-NULL).
  BlockProperties Analyze(const QueryBlock& block) const;

  /// Facts about `child`'s linking predicate. `ancestors` lists the
  /// enclosing blocks, root first, ending at the direct parent (used to
  /// resolve the linking attribute's owning block).
  LinkFacts AnalyzeLink(const QueryBlock& child,
                        const std::vector<const QueryBlock*>& ancestors) const;

  /// True when `child`'s qualifying set provably has at most one member per
  /// outer binding: some key of the block is fully pinned by local literal
  /// equalities and/or correlated equality predicates.
  bool AtMostOneMember(const QueryBlock& child) const;

 private:
  bool BaseNonNull(const std::string& table, const std::string& column) const;

  const Catalog& catalog_;
  bool declared_only_ = false;
};

/// \brief Executor-facing eligibility test for the proven-2VL fast path:
/// `child`'s negative link may run as a plain hash / nested-loop antijoin,
/// bit-identical to the 3VL nest + pseudo-selection route. Requires a leaf,
/// non-aggregate, negative link on a strict-safe path (every enclosing link
/// positive, so dropping a failing tuple is sound), and — for NOT IN and
/// θ ALL — a two-valued member comparison per AnalyzeLink. NOT EXISTS has
/// no member comparison and qualifies unconditionally. `path` lists the
/// enclosing blocks, root first, ending at `child`'s parent.
bool NegativeLinkRunsTwoValued(const QueryBlock& child,
                               const std::vector<const QueryBlock*>& path,
                               const Catalog& catalog);

}  // namespace nestra

#endif  // NESTRA_VERIFY_PROPERTIES_H_
