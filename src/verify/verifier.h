#ifndef NESTRA_VERIFY_VERIFIER_H_
#define NESTRA_VERIFY_VERIFIER_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "nra/physical_plan.h"
#include "plan/query_block.h"
#include "storage/catalog.h"

namespace nestra {

/// Rule identifiers, stable across releases (documented in DESIGN.md with
/// their paper references).
namespace verify_rules {
/// Selection-mode consistency: strict σ_C only where no enclosing negative
/// operator is pending; pseudo σ̄_{C,A} pads exactly the enclosing block's
/// carried attribute set A (paper §4, Definition of the pseudo-selection).
inline constexpr const char kLinkMode[] = "link-mode";
/// Linking predicate well-formedness: the operator's outer/inner operands
/// exist and resolve on the correct side (paper §2, linking predicates).
inline constexpr const char kLinkSchema[] = "link-schema";
/// Nest operator υ_{N1,N2}: N1 ∩ N2 = ∅, N2 non-empty, and every attribute
/// the linking selection reads survives the implicit projection onto
/// N1 ∪ N2 (paper §3, nest definition).
inline constexpr const char kNestSets[] = "nest-sets";
/// Every outer-joined block contributes a key attribute that survives to
/// its linking selection, so empty subqueries are detectable through
/// NULL-padded keys (paper §4, empty-set handling).
inline constexpr const char kKeySurvival[] = "key-survival";
/// Schema propagation: every attribute referenced by local / correlated /
/// linking predicates and the root output resolves at its point of use.
inline constexpr const char kSchemaResolve[] = "schema-resolve";
/// Preconditions of the enabled §4.2.3–§4.2.5 rewrites actually hold.
inline constexpr const char kRewritePrecond[] = "rewrite-precond";
/// A non-correlated, non-leaf block forces a materialized Cartesian
/// product (warning: legal but expensive).
inline constexpr const char kCartesianProduct[] = "cartesian-product";
/// A linking predicate whose member comparison can only ever evaluate to
/// UNKNOWN (an operand is provably NULL, or the operand types are
/// incomparable): the link is constant-valued regardless of the data
/// (warning — legal SQL, almost certainly a query bug).
inline constexpr const char kNullLinking[] = "null-linking";
/// A scalar (non-aggregate) subquery whose cardinality bound is not
/// provably <= 1 per outer binding: it may yield more than one row at
/// runtime (error; SQL requires at most one).
inline constexpr const char kScalarCard[] = "scalar-card";
/// Carried-set well-formedness: each block's `carried` list is a
/// subsequence of its attributes, holds every FROM table's primary key (all
/// columns of a keyless table in a multi-table block), and every column a
/// correlated, linking, nest or root-output site reads after the base scan
/// is carried by the block that owns it (paper §3: the nest's implicit
/// projection onto N1 ∪ N2).
inline constexpr const char kCarriedSet[] = "carried-set";

/// Every registered rule id, in documentation order. EXPLAIN's summary line
/// and tools/lint_engine_invariants.py consume this registry.
inline constexpr const char* kAllRules[] = {
    kLinkMode,   kLinkSchema,     kNestSets,   kKeySurvival, kSchemaResolve,
    kRewritePrecond, kCartesianProduct, kNullLinking, kScalarCard, kCarriedSet,
};
inline constexpr int kNumRules = sizeof(kAllRules) / sizeof(kAllRules[0]);
}  // namespace verify_rules

enum class VerifySeverity { kWarning, kError };

const char* VerifySeverityToString(VerifySeverity severity);

/// One structured finding of the verifier.
struct VerifyDiagnostic {
  VerifySeverity severity = VerifySeverity::kError;
  int block_id = 0;
  std::string rule_id;
  std::string message;

  /// "error [nest-sets] block 2: ..." — one line, no trailing newline.
  std::string ToString() const;
};

/// \brief Diagnostics container, indexed by rule id: Add() maintains
/// severity tallies and per-rule counts so HasRule / the EXPLAIN summary
/// line are O(log #distinct-rules) instead of a scan per query.
class VerifyReport {
 public:
  void Add(VerifyDiagnostic d);

  const std::vector<VerifyDiagnostic>& diagnostics() const {
    return diagnostics_;
  }
  /// No error-severity diagnostics (warnings allowed).
  bool ok() const { return num_errors_ == 0; }
  /// No diagnostics at all.
  bool clean() const { return diagnostics_.empty(); }
  int num_errors() const { return num_errors_; }
  int num_warnings() const { return num_warnings_; }
  bool HasRule(const std::string& rule_id) const {
    return rule_counts_.count(rule_id) > 0;
  }
  int CountRule(const std::string& rule_id) const;

  /// "verify: 10 rules, 0 errors, 2 warnings" — the cheap one-liner EXPLAIN
  /// prints (rule count = the registry size, not the rules that fired).
  std::string Summary() const;
  /// One diagnostic per line.
  std::string ToString() const;
  /// OK when ok(); otherwise an InvalidArgument carrying every error.
  Status ToStatus() const;

 private:
  std::vector<VerifyDiagnostic> diagnostics_;
  std::map<std::string, int> rule_counts_;
  int num_errors_ = 0;
  int num_warnings_ = 0;
};

/// \brief Static verifier for bound QueryBlock plans (run before execution).
///
/// Verify() checks the tree-level invariants (schemas, linking predicates,
/// keys, rewrite preconditions) and then every step of the physical plan it
/// is handed. CheckOutline() is exposed separately so tests (and future
/// external planners) can validate a hand-built or mutated plan against a
/// tree. The verifier reads the plan's decisions but re-derives their
/// soundness conditions itself, so a builder bug cannot also blind its
/// checker.
class PlanVerifier {
 public:
  explicit PlanVerifier(const Catalog& catalog) : catalog_(catalog) {}

  /// `plan` is the plan BuildPhysicalPlan made for `root`.
  VerifyReport Verify(const QueryBlock& root, const PhysicalPlan& plan) const;

  /// Per-step invariants (link-mode, nest-sets, key-survival) over an
  /// explicit outline. `steps` may have been produced from a different (or
  /// since-mutated) tree than the blocks its pointers reference; the
  /// required selection mode is recomputed from the current link operators.
  void CheckOutline(const std::vector<PlanStep>& steps,
                    VerifyReport* report) const;

 private:
  void CheckTree(const QueryBlock& block,
                 std::vector<const QueryBlock*>* ancestors,
                 const PhysicalPlan& plan, VerifyReport* report) const;
  void CheckRootOutput(const QueryBlock& root, VerifyReport* report) const;
  void CheckLink(const QueryBlock& block,
                 const std::vector<const QueryBlock*>& ancestors,
                 VerifyReport* report) const;
  /// Property-driven rules: null-linking (member comparison provably always
  /// UNKNOWN) and scalar-card (scalar subquery not provably <= 1 row).
  void CheckLinkProperties(const QueryBlock& block,
                           const std::vector<const QueryBlock*>& ancestors,
                           VerifyReport* report) const;
  /// carried-set over the tree: `block`'s carried list against its
  /// attributes and FROM keys, and every column read after the base scans
  /// against the carried list of the block that owns it.
  void CheckCarried(const QueryBlock& block,
                    std::vector<const QueryBlock*>* ancestors,
                    VerifyReport* report) const;
  /// `step` is the plan's step for `block`'s link, or null.
  void CheckRewritePreconditions(const QueryBlock& block,
                                 const std::vector<const QueryBlock*>& ancestors,
                                 const PlanStep* step,
                                 VerifyReport* report) const;

  const Catalog& catalog_;
};

}  // namespace nestra

#endif  // NESTRA_VERIFY_VERIFIER_H_
