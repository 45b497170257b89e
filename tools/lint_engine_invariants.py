#!/usr/bin/env python3
"""Repo-invariant lint, run by the CI repo-lint job.

Six checks, each guarding a convention the engine relies on but the
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

4. One physical plan: the plan decisions — the proven-2VL antijoin
   (`NegativeLinkRunsTwoValued`), the cost gates
   (`CostGatesSemijoinRewrite` / `CostGatesNestPushDown`) and the join
   strategies (`ChoosesJoinStrategy` / `ChoosesScanJoinStrategy`) — are
   computed only by BuildPhysicalPlan (src/nra/physical_plan.cc) and in
   their home files. Two further sites are allowed: EvalBlockBase
   (src/nra/planner.cc) picks the intra-block scan join strategy, which no
   plan step covers, and the verifier's CheckOutline re-checks the antijoin
   from first principles exactly once. Executor, EXPLAIN and verifier read
   the plan; a new direct call is a second copy of a decision that will
   eventually drift. (src/ only; tests may call them directly to pin their
   behavior.)

5. Catalog-mutation layering: once sessions exist, DDL must be serialized
   against running queries by ConnectionManager's schema lock, so direct
   Catalog mutation calls (`RegisterTable(` / `DropTable(` / `AddNotNull(`
   / `DropNotNull(`) in `src/` are restricted to the storage layer itself,
   the server layer (whose DDL wrappers take the exclusive schema lock),
   and the TPC-H generator (bulk-load helper invoked via
   ConnectionManager::Ddl or before any session opens). A mutation call
   sneaking into the executor or an operator would bypass the schema lock
   and reintroduce the drop-under-a-running-query race.

6. One reading of constants: no `dynamic_cast<const Literal*>` or
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


# Where each plan decision may be computed: function -> {file: number of
# permitted call sites (None = unlimited)}. Home files hold the declaration
# and definition; the builder makes every decision of the plan.
PLAN_BUILDER = "src/nra/physical_plan.cc"
PLAN_DECISIONS = {
    "NegativeLinkRunsTwoValued": {
        "src/verify/properties.h": None,
        "src/verify/properties.cc": None,
        PLAN_BUILDER: None,
        "src/verify/verifier.cc": 1,  # CheckOutline's independent re-check
    },
    "CostGatesSemijoinRewrite": {PLAN_BUILDER: None},
    "CostGatesNestPushDown": {PLAN_BUILDER: None},
    "ChoosesJoinStrategy": {PLAN_BUILDER: None},
    "ChoosesScanJoinStrategy": {
        "src/nra/planner.cc": 1,  # EvalBlockBase's intra-block join
    },
}
PLAN_DECISION_HOME = "src/plan/stats/"


def check_plan_decisions():
    violations = []
    for path in sorted((REPO / "src").rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        rel = path.relative_to(REPO).as_posix()
        if rel.startswith(PLAN_DECISION_HOME):
            continue
        lines = path.read_text().splitlines()
        for function, allowlist in PLAN_DECISIONS.items():
            allowed = allowlist.get(rel, 0)
            if allowed is None:
                continue
            pattern = re.compile(rf"\b{function}\s*\(")
            hits = [lineno for lineno, line in enumerate(lines, start=1)
                    if pattern.search(line.split("//", 1)[0])]
            for lineno in hits[allowed:]:
                violations.append(
                    f"{rel}:{lineno}: direct {function} call; the plan "
                    f"decision is made once, in BuildPhysicalPlan "
                    f"({PLAN_BUILDER}) — read the PhysicalPlan instead"
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
                  check_test_registration, check_plan_decisions,
                  check_catalog_mutation_layer, check_constant_reading):
        violations.extend(check())
    for v in violations:
        print(f"lint: {v}", file=sys.stderr)
    if not violations:
        print("lint_engine_invariants: all checks clean")
    return min(len(violations), 125)


if __name__ == "__main__":
    sys.exit(main())
