#!/usr/bin/env python3
"""Repo-invariant lint, run by the CI repo-lint job.

Seven checks, each guarding a convention the engine relies on but the
compiler cannot enforce:

1. Hot-path purity: no wall-clock or RNG calls (`steady_clock`, `rand(`,
   `srand(`, `time(`) in `src/` outside the explicit allowlist of files
   whose timing is behind the profiling / telemetry guards (exec_node's
   EnableTimingRecursive gate, the trace/metrics sinks, the thread pool's
   contention counter, profile.cc, and executor.cc's phase timers, which
   only run when profiling is on). A timing call that sneaks into a kernel
   or operator loop silently costs a vDSO call per row.

2. Rule-id hygiene: every `verify_rules::k*` string constant declared in
   src/verify/verifier.h must be documented in DESIGN.md and exercised by
   tests/verify_test.cc. A rule that fires in production but appears in
   neither is untested and unexplained.

3. Test registration: every tests/*.cc file must be registered in
   tests/CMakeLists.txt. An unregistered suite compiles on nobody's
   machine and silently stops running.

4. Plan-decision consolidation: the negative-link two-valued antijoin
   decision is computed by `NegativeLinkRunsTwoValued`, but call sites are
   restricted to its home (src/verify/properties.h/.cc), the shared
   engine predicates (src/nra/rewrites.h), and exactly ONE deliberate
   re-validation inside src/verify/verifier.cc's CheckOutline. Executor,
   EXPLAIN, and outline derivation must route through the rewrites.h
   predicates — a new direct call is a hand-mirrored copy of the decision
   that will eventually drift (the bug class PR 7 removed).

5. Catalog-mutation layering: once sessions exist, DDL must be serialized
   against running queries by ConnectionManager's schema lock, so direct
   Catalog mutation calls (`RegisterTable(` / `DropTable(` / `AddNotNull(`
   / `DropNotNull(`) in `src/` are restricted to the storage layer itself,
   the server layer (whose DDL wrappers take the exclusive schema lock),
   and the TPC-H generator (bulk-load helper invoked via
   ConnectionManager::Ddl or before any session opens). A mutation call
   sneaking into the executor or an operator would bypass the schema lock
   and reintroduce the drop-under-a-running-query race.

6. Cost-decision consolidation: the stats-driven estimator gates
   (`CostGatesSemijoinRewrite` / `CostGatesNestPushDown` /
   `ChoosesJoinStrategy` / `ChoosesScanJoinStrategy`) may be called only
   from their home (src/plan/stats/) and the shared engine predicates in
   src/nra/cost.h. Executor, EXPLAIN, and verifier consume the decisions
   through those shared predicates, and the lint requires each consumer to
   actually do so — the same one-predicate-many-mirrors rule as check 4,
   extended to the cost model: a direct estimator call in an engine file
   is a hand-mirrored copy of a plan decision that will drift. (src/ only;
   tests may call the gates directly to pin their behavior.)

7. One reading of constants: no `dynamic_cast<const Literal*>` or
   `dynamic_cast<const ParamExpr*>` in `src/` outside the expression
   module (src/expr/). Code that reads a constant operand (scan kernels,
   zone-map terms, selectivity estimates, property facts) must call
   `BoundConstant`, which answers for a literal and for an EXECUTE-bound
   parameter alike; a site that matches `Literal` alone silently sends
   every prepared statement down the slow path.

Exit status is the number of violations (0 = clean).
"""

import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent

# Files allowed to read the clock / RNG. Everything here is either behind
# an explicit opt-in (profiling, tracing, metrics) or off the per-row path
# (pool bring-up, query-level phase stamps).
CLOCK_ALLOWLIST = {
    "src/common/thread_pool.cc",   # queue-wait contention counter
    "src/exec/exec_node.cc",       # per-node timers, gated on EnableTimingRecursive
    "src/exec/exec_node.h",
    "src/nra/executor.cc",         # per-query phase stamps (parse/plan/execute)
    "src/nra/profile.cc",          # EXPLAIN ANALYZE collection
    "src/nra/profile.h",
    "src/telemetry/trace.cc",      # trace-event timestamps
    "src/telemetry/trace.h",
    "src/server/session.cc",       # prepared-exec slow-query stamp, gated on slow_query_ms
    "src/server/harness.cc",       # per-statement latency measurement (the harness IS a load meter)
}

CLOCK_PATTERN = re.compile(r"steady_clock|\b[s]?rand\s*\(|\btime\s*\(")


def check_hot_path_purity():
    violations = []
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        rel = path.relative_to(REPO).as_posix()
        if rel in CLOCK_ALLOWLIST:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            code = line.split("//", 1)[0]
            if CLOCK_PATTERN.search(code):
                violations.append(
                    f"{rel}:{lineno}: clock/RNG call outside allowlist: "
                    f"{line.strip()}"
                )
    return violations


def check_rule_ids():
    violations = []
    header = (REPO / "src/verify/verifier.h").read_text()
    design = (REPO / "DESIGN.md").read_text()
    tests = (REPO / "tests/verify_test.cc").read_text()
    # Rule ids are string constants: inline constexpr const char kFoo[] = "foo";
    decls = re.findall(
        r"inline constexpr const char (k\w+)\[\]\s*=\s*\"([^\"]+)\"", header
    )
    if not decls:
        violations.append("src/verify/verifier.h: no verify_rules constants found")
    for const_name, rule_id in decls:
        if const_name not in design and rule_id not in design:
            violations.append(
                f"verify_rules::{const_name} (\"{rule_id}\") not documented "
                f"in DESIGN.md"
            )
        if const_name not in tests:
            violations.append(
                f"verify_rules::{const_name} not exercised by "
                f"tests/verify_test.cc"
            )
    return violations


def check_test_registration():
    violations = []
    cmake = (REPO / "tests/CMakeLists.txt").read_text()
    registered = set(re.findall(r"nestra_add_test\((\w+)\)", cmake))
    for path in sorted((REPO / "tests").glob("*.cc")):
        if path.stem not in registered:
            violations.append(
                f"tests/{path.name} not registered in tests/CMakeLists.txt"
            )
    return violations


# Where the two-valued antijoin decision may be computed directly. The
# value is the number of permitted call sites (None = unlimited: the
# definition and the shared predicates that wrap it).
DECISION_FUNCTION = "NegativeLinkRunsTwoValued"
DECISION_ALLOWLIST = {
    "src/verify/properties.h": None,   # declaration + docs
    "src/verify/properties.cc": None,  # definition
    "src/nra/rewrites.h": None,        # the shared predicates
    "src/verify/verifier.cc": 1,       # CheckOutline's independent recheck
}


def check_plan_decision_consolidation():
    violations = []
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        rel = path.relative_to(REPO).as_posix()
        allowed = DECISION_ALLOWLIST.get(rel, 0)
        if allowed is None:
            continue
        hits = []
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            code = line.split("//", 1)[0]
            if DECISION_FUNCTION in code:
                hits.append(lineno)
        if len(hits) > allowed:
            for lineno in hits[allowed:] if allowed else hits:
                violations.append(
                    f"{rel}:{lineno}: direct {DECISION_FUNCTION} call site; "
                    f"use the shared predicates in src/nra/rewrites.h "
                    f"(TakesTwoValuedAntijoin / FusedChainBypassesTwoValued) "
                    f"instead of re-deriving the plan decision"
                )
    return violations


# Where Catalog mutation calls may appear in src/. Everything else must go
# through ConnectionManager's DDL wrappers (exclusive schema lock).
CATALOG_MUTATION_PATTERN = re.compile(
    r"\b(?:RegisterTable|DropTable|AddNotNull|DropNotNull)\s*\("
)
CATALOG_MUTATION_ALLOWED_PREFIXES = (
    "src/storage/",        # the Catalog itself + persistence (catalog_io)
    "src/server/",         # ConnectionManager's lock-taking wrappers
    "src/tpch/tpch_gen.cc",  # bulk loader, run via Ddl() or pre-session
)


def check_catalog_mutation_layer():
    violations = []
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith(CATALOG_MUTATION_ALLOWED_PREFIXES):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            code = line.split("//", 1)[0]
            if CATALOG_MUTATION_PATTERN.search(code):
                violations.append(
                    f"{rel}:{lineno}: direct Catalog mutation outside the "
                    f"storage/server/bulk-load layers; route DDL through "
                    f"ConnectionManager so it serializes against running "
                    f"queries: {line.strip()}"
                )
    return violations


# Stats-driven cost gates: callable only from the estimator's home and the
# shared predicates that wrap it for the engine.
COST_GATE_PATTERN = re.compile(
    r"\b(?:CostGatesSemijoinRewrite|CostGatesNestPushDown"
    r"|ChoosesJoinStrategy|ChoosesScanJoinStrategy)\s*\("
)
COST_GATE_ALLOWED_PREFIXES = (
    "src/plan/stats/",  # declarations + definitions
    "src/nra/cost.h",   # the shared predicates
)

# Every engine surface that acts on a cost decision must consume it through
# the same shared predicate, so the three mirrors cannot drift. Word-bounded
# so BaseJoinStrategyFor (the hint builder cost.h itself wraps) doesn't
# satisfy the JoinStrategyFor requirement.
COST_PREDICATE_CONSUMERS = {
    "TakesSemijoinRewrite": (
        "src/nra/executor.cc", "src/nra/explain.cc", "src/verify/verifier.cc",
    ),
    "TakesNestPushDown": (
        "src/nra/executor.cc", "src/nra/explain.cc", "src/verify/verifier.cc",
    ),
    # The verifier checks rewrite shape, not join physics, so it has no
    # JoinStrategyFor mirror to keep in sync.
    "JoinStrategyFor": ("src/nra/executor.cc", "src/nra/explain.cc"),
}


def check_cost_decision_consolidation():
    violations = []
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith(COST_GATE_ALLOWED_PREFIXES):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            code = line.split("//", 1)[0]
            if COST_GATE_PATTERN.search(code):
                violations.append(
                    f"{rel}:{lineno}: direct estimator gate call site; use "
                    f"the shared predicates in src/nra/cost.h "
                    f"(TakesSemijoinRewrite / TakesNestPushDown / "
                    f"JoinStrategyFor) instead of re-deriving the cost "
                    f"decision: {line.strip()}"
                )
    for predicate, consumers in COST_PREDICATE_CONSUMERS.items():
        pattern = re.compile(rf"\b{predicate}\s*\(")
        for rel in consumers:
            if not pattern.search((REPO / rel).read_text()):
                violations.append(
                    f"{rel}: expected a {predicate}(...) call (the shared "
                    f"cost predicate from src/nra/cost.h); this surface "
                    f"must mirror the engine's cost decision through the "
                    f"shared predicate, not a local copy"
                )
    return violations


# Constant-operand matching: only the expression module may look at Literal
# or ParamExpr by type; everything else reads constants via BoundConstant.
CONSTANT_CAST_PATTERN = re.compile(
    r"dynamic_cast\s*<\s*const\s+(?:Literal|ParamExpr)\s*\*\s*>"
)
CONSTANT_CAST_ALLOWED_PREFIX = "src/expr/"


def check_constant_reading():
    violations = []
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith(CONSTANT_CAST_ALLOWED_PREFIX):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            code = line.split("//", 1)[0]
            if CONSTANT_CAST_PATTERN.search(code):
                violations.append(
                    f"{rel}:{lineno}: constant operand matched by type; call "
                    f"BoundConstant (src/expr/expr.h) so bound parameters "
                    f"read as constants too: {line.strip()}"
                )
    return violations


def main():
    violations = []
    for check in (check_hot_path_purity, check_rule_ids,
                  check_test_registration,
                  check_plan_decision_consolidation,
                  check_catalog_mutation_layer,
                  check_cost_decision_consolidation,
                  check_constant_reading):
        violations.extend(check())
    for v in violations:
        print(f"lint: {v}", file=sys.stderr)
    if not violations:
        print("lint_engine_invariants: all checks clean")
    return min(len(violations), 125)


if __name__ == "__main__":
    sys.exit(main())
