// Prepared ≡ ad hoc. Substituting a value for a parameter must evaluate
// exactly like writing the constant (Hernández et al., "The Problem of
// Correlation and Substitution in SPARQL"). So an EXECUTE of a prepared
// statement must scan, prune and estimate like the ad hoc statement with
// the same literals. For the six oltp_sessions statement shapes, seeded
// arguments and edge cases, this suite checks that the two agree row for
// row. It compares the stage list with each stage's operator tree, the
// planner's stage estimates, the deterministic NraStats and the zone-map
// pruning counter, at threads 1 and 2 on the row and vectorized engines.
// A second suite checks that a bound parameter gives the property
// analyzer the same facts as the literal, and that it gives none before
// EXECUTE.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/date.h"
#include "expr/expr.h"
#include "nra/executor.h"
#include "nra/profile.h"
#include "plan/binder.h"
#include "plan/stats/estimator.h"
#include "server/connection_manager.h"
#include "server/session.h"
#include "sql/parser.h"
#include "storage/catalog.h"
#include "telemetry/metrics.h"
#include "test_util.h"
#include "tpch/tpch_gen.h"
#include "verify/properties.h"

namespace nestra {
namespace {

using telemetry::MetricsRegistry;

struct Shape {
  const char* name;
  const char* sql;
};

// The oltp_sessions statement shapes (e2ebench/src/workloads.cc), copied
// here so the benchmark can change without changing what this suite pins.
const Shape kShapes[] = {
    {"q1",
     "select o_orderkey, o_orderpriority from orders where o_orderdate >= $1 "
     "and o_orderdate < $2 and o_totalprice > all (select l_extendedprice "
     "from lineitem where l_orderkey = o_orderkey and l_commitdate < "
     "l_receiptdate and l_shipdate < l_commitdate)"},
    {"q2a",
     "select p_partkey, p_name from part where p_size >= $1 and p_size <= $2 "
     "and p_retailprice < any (select ps_supplycost from partsupp where "
     "ps_partkey = p_partkey and ps_availqty < $3 and not exists (select * "
     "from lineitem where ps_partkey = l_partkey and ps_suppkey = l_suppkey "
     "and l_quantity = $4))"},
    {"q3b",
     "select p_partkey, p_name from part where p_size >= $1 and p_size <= $2 "
     "and p_retailprice < all (select ps_supplycost from partsupp where "
     "ps_partkey = p_partkey and ps_availqty < $3 and not exists (select * "
     "from lineitem where p_partkey = l_partkey and ps_suppkey = l_suppkey "
     "and l_quantity = $4))"},
    {"exists",
     "select p_partkey, p_name from part where p_size <= $1 and exists "
     "(select * from partsupp where ps_partkey = p_partkey and ps_availqty "
     "< $2)"},
    {"notin",
     "select o_orderkey, o_orderpriority from orders where o_orderdate >= $1 "
     "and o_totalprice not in (select l_extendedprice from lineitem where "
     "l_orderkey = o_orderkey and l_quantity < $2)"},
    {"flat",
     "select o_orderkey, o_totalprice from orders where o_totalprice > $1 "
     "and o_orderpriority = $2"},
};
constexpr size_t kNumShapes = sizeof(kShapes) / sizeof(kShapes[0]);

// The zone-map literal limit (kZoneLiteralLimit in src/nra/planner.cc).
constexpr int64_t kTwo52 = int64_t{1} << 52;

struct Case {
  size_t shape;
  std::vector<Value> args;
};

// The literal an ad hoc statement spells for `v`.
std::string LiteralText(const Value& v) {
  if (v.is_null()) return "null";
  if (v.is_string()) return "'" + v.string() + "'";
  return v.ToString();
}

// Replaces $1..$9 in `sql` by the literals of `args`.
std::string Substitute(const std::string& sql, const std::vector<Value>& args) {
  std::string out;
  for (size_t i = 0; i < sql.size(); ++i) {
    if (sql[i] == '$' && i + 1 < sql.size() && sql[i + 1] >= '1' &&
        sql[i + 1] <= '9') {
      out += LiteralText(args[static_cast<size_t>(sql[i + 1] - '1')]);
      ++i;
    } else {
      out += sql[i];
    }
  }
  return out;
}

std::string Describe(const Case& c) {
  std::string out = kShapes[c.shape].name;
  out += "(";
  for (size_t i = 0; i < c.args.size(); ++i) {
    if (i > 0) out += ", ";
    out += LiteralText(c.args[i]);
  }
  return out + ")";
}

// Seeded arguments drawn from the oltp_sessions ranges, plus the edge cases:
// date strings outside the data (every orders granule pruned), NULL, a
// string and a float against an int column, and ±2^52 around the zone-map
// literal limit.
std::vector<Case> Cases() {
  const int64_t date_lo = *DaysFromCivil(1992, 1, 1);
  const int64_t date_hi = *DaysFromCivil(1998, 8, 2);
  std::mt19937_64 rng(22);
  const auto uniform = [&rng](int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  const auto date = [](int64_t days) {
    return Value::String(FormatDate(days));
  };
  const char* priorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                              "4-NOT SPECIFIED", "5-LOW"};
  std::vector<Case> cases;
  for (int round = 0; round < 3; ++round) {
    for (size_t shape = 0; shape < kNumShapes; ++shape) {
      Case c{shape, {}};
      switch (shape) {
        case 0: {
          const int64_t lo = uniform(date_lo, date_hi - 400);
          c.args = {date(lo), date(lo + uniform(30, 400))};
          break;
        }
        case 1:
        case 2: {
          const int64_t lo = uniform(1, 25);
          c.args = {Value::Int64(lo), Value::Int64(lo + uniform(5, 25)),
                    Value::Int64(uniform(1000, 9999)),
                    Value::Int64(uniform(1, 50))};
          break;
        }
        case 3:
          c.args = {Value::Int64(uniform(5, 50)),
                    Value::Int64(uniform(100, 9999))};
          break;
        case 4:
          c.args = {date(uniform(date_lo, date_hi)),
                    Value::Int64(uniform(10, 50))};
          break;
        default:
          c.args = {Value::Int64(uniform(10000, 500000)),
                    Value::String(priorities[uniform(0, 4)])};
      }
      cases.push_back(std::move(c));
    }
  }
  const Value null = Value::Null();
  cases.push_back(
      {0, {Value::String("2030-01-01"), Value::String("2031-01-01")}});
  cases.push_back({0, {null, Value::String("1996-01-01")}});
  cases.push_back({4, {Value::String("1997-06-01"), null}});
  cases.push_back({4, {Value::String("1970-01-01"), Value::Int64(30)}});
  cases.push_back({3, {Value::String("20"), Value::Int64(5000)}});
  cases.push_back({3, {Value::Float64(20.5), Value::Float64(5000.5)}});
  cases.push_back({1, {Value::Int64(5), Value::Int64(30), null,
                       Value::Int64(25)}});
  cases.push_back({2, {Value::Float64(5.5), Value::String("30"),
                       Value::Int64(5000), Value::Int64(kTwo52)}});
  cases.push_back({5, {Value::Int64(kTwo52), Value::String("1-URGENT")}});
  cases.push_back({5, {Value::Int64(-kTwo52), Value::String("2-HIGH")}});
  cases.push_back({5, {Value::Int64(kTwo52 - 1), Value::String("1-URGENT")}});
  cases.push_back({5, {Value::Int64(-(kTwo52 - 1)), null}});
  cases.push_back({5, {Value::Float64(150000.25), Value::String("5-LOW")}});
  return cases;
}

// One data set for every test: the default TPC-H scale, so orders (15
// granules) and lineitem are large enough for zone-map pruning.
class PreparedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    TpchConfig config;
    config.declare_not_null = true;
    const Status st = PopulateTpch(catalog_, config);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  static Catalog* catalog_;
};

Catalog* PreparedTest::catalog_ = nullptr;

struct Observed {
  Table table;
  NraStats stats;
  QueryProfile profile;
  double pruned = 0;  // nestra_zone_granules_pruned_total delta
};

double PrunedTotal() {
  const std::map<std::string, double> values =
      MetricsRegistry::Global().DeterministicValues();
  const auto it = values.find("nestra_zone_granules_pruned_total");
  return it == values.end() ? 0 : it->second;
}

void ExpectSameTree(const ProfiledOperator& want, const ProfiledOperator& got,
                    const std::string& where) {
  EXPECT_EQ(want.name, got.name) << where;
  EXPECT_EQ(want.detail, got.detail) << where << " " << want.name;
  EXPECT_EQ(want.stats.rows_out, got.stats.rows_out) << where << " "
                                                     << want.name;
  ASSERT_EQ(want.children.size(), got.children.size()) << where;
  for (size_t i = 0; i < want.children.size(); ++i) {
    ExpectSameTree(want.children[i], got.children[i], where);
  }
}

void ExpectSame(const Observed& want, const Observed& got,
                const std::string& where) {
  ASSERT_EQ(want.table.num_rows(), got.table.num_rows()) << where;
  for (size_t i = 0; i < want.table.rows().size(); ++i) {
    ASSERT_TRUE(want.table.rows()[i] == got.table.rows()[i])
        << where << " row " << i << ": " << want.table.rows()[i].ToString()
        << " vs " << got.table.rows()[i].ToString();
  }
  EXPECT_EQ(want.stats.intermediate_rows, got.stats.intermediate_rows)
      << where;
  EXPECT_EQ(want.stats.output_rows, got.stats.output_rows) << where;
  EXPECT_EQ(want.stats.peak_mem_bytes, got.stats.peak_mem_bytes) << where;
  EXPECT_EQ(want.pruned, got.pruned) << where;

  const std::vector<ProfiledStage>& ws = want.profile.stages();
  const std::vector<ProfiledStage>& gs = got.profile.stages();
  ASSERT_EQ(ws.size(), gs.size()) << where;
  for (size_t i = 0; i < ws.size(); ++i) {
    const std::string at = where + " stage " + ws[i].label;
    EXPECT_EQ(ws[i].label, gs[i].label) << at;
    EXPECT_EQ(ws[i].phase, gs[i].phase) << at;
    EXPECT_EQ(ws[i].rows_out, gs[i].rows_out) << at;
    EXPECT_EQ(ws[i].mem_bytes, gs[i].mem_bytes) << at;
    EXPECT_EQ(ws[i].peak_mem_bytes, gs[i].peak_mem_bytes) << at;
    ASSERT_EQ(ws[i].has_tree, gs[i].has_tree) << at;
    if (ws[i].has_tree) ExpectSameTree(ws[i].tree, gs[i].tree, at);
  }

  const auto& we = want.profile.estimates;
  const auto& ge = got.profile.estimates;
  ASSERT_EQ(we.size(), ge.size()) << where;
  for (const auto& [label, est] : we) {
    const auto it = ge.find(label);
    ASSERT_NE(it, ge.end()) << where << " estimate " << label;
    EXPECT_EQ(est.rows, it->second.rows) << where << " estimate " << label;
    EXPECT_EQ(est.bound, it->second.bound) << where << " estimate " << label;
  }
}

struct EngineConfig {
  int threads;
  bool vectorized;
};

class PreparedEquivalenceTest
    : public PreparedTest,
      public ::testing::WithParamInterface<EngineConfig> {};

// Metrics on for one test; off and zeroed again however it ends.
struct MetricsOnGuard {
  MetricsOnGuard() { telemetry::SetMetricsEnabled(true); }
  ~MetricsOnGuard() {
    telemetry::SetMetricsEnabled(false);
    MetricsRegistry::Global().ResetValues();
  }
};

TEST_P(PreparedEquivalenceTest, ExecuteMatchesAdHocStatement) {
  const MetricsOnGuard metrics;
  ConnectionManager manager(catalog_);
  std::unique_ptr<Session> session = manager.Connect();
  session->options().num_threads = GetParam().threads;
  session->options().vectorized = GetParam().vectorized;
  session->options().profile = true;
  for (const Shape& shape : kShapes) {
    ASSERT_OK(session->Prepare(shape.name, shape.sql));
  }

  int pruning_cases = 0;
  for (const Case& c : Cases()) {
    const std::string where = Describe(c);
    Observed adhoc;
    double before = PrunedTotal();
    NraExecutor executor(*catalog_, session->options());
    Result<Table> a = executor.ExecuteStatementSql(
        Substitute(kShapes[c.shape].sql, c.args), &adhoc.stats, &adhoc.profile);
    ASSERT_TRUE(a.ok()) << where << ": " << a.status().ToString();
    adhoc.table = std::move(*a);
    adhoc.pruned = PrunedTotal() - before;

    Observed prepared;
    before = PrunedTotal();
    Result<Table> p = session->ExecutePrepared(
        kShapes[c.shape].name, c.args, &prepared.stats, &prepared.profile);
    ASSERT_TRUE(p.ok()) << where << ": " << p.status().ToString();
    prepared.table = std::move(*p);
    prepared.pruned = PrunedTotal() - before;

    ExpectSame(adhoc, prepared, where);
    if (adhoc.pruned > 0) ++pruning_cases;
  }
  // The out-of-range dates and 2^52 - 1 prune granules; without them the
  // zone-map comparison above would pass vacuously.
  EXPECT_GT(pruning_cases, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, PreparedEquivalenceTest,
    ::testing::Values(EngineConfig{1, false}, EngineConfig{1, true},
                      EngineConfig{2, false}, EngineConfig{2, true}),
    [](const ::testing::TestParamInfo<EngineConfig>& info) {
      return std::string(info.param.vectorized ? "vectorized" : "row") +
             "_threads" + std::to_string(info.param.threads);
    });

// A prepared tree bound as PREPARE leaves it, plus the slots EXECUTE fills.
struct PreparedTree {
  QueryBlockPtr root;
  ParamBinding params;
};

Result<PreparedTree> BindPrepared(const std::string& sql,
                                  const Catalog& catalog) {
  PreparedTree out;
  NESTRA_ASSIGN_OR_RETURN(AstSelectPtr ast, ParseSelect(sql));
  NESTRA_ASSIGN_OR_RETURN(out.root, BindQuery(*ast, catalog, &out.params));
  return out;
}

// Stores `args` the way Session::ExecutePrepared does: string arguments of
// date-compared parameters become dates.
void BindArgs(const std::vector<Value>& args, ParamBinding* params) {
  std::vector<Value> bound = args;
  for (const int slot : params->date_params) {
    if (bound[static_cast<size_t>(slot)].is_string()) {
      bound[static_cast<size_t>(slot)] = Value::Date(
          *ParseDate(bound[static_cast<size_t>(slot)].string()));
    }
  }
  *params->slots = std::move(bound);
}

// Every fact the property analyzer derives for `got` and its descendants
// equals the one for the matching block of `want`.
void ExpectSameFacts(const PropertyAnalyzer& analyzer, const QueryBlock& want,
                     const QueryBlock& got,
                     std::vector<const QueryBlock*>* want_path,
                     std::vector<const QueryBlock*>* got_path,
                     const std::string& where) {
  EXPECT_EQ(analyzer.Analyze(want).ToString(), analyzer.Analyze(got).ToString())
      << where << " block " << want.id;
  if (!want_path->empty()) {
    const LinkFacts wf = analyzer.AnalyzeLink(want, *want_path);
    const LinkFacts gf = analyzer.AnalyzeLink(got, *got_path);
    EXPECT_EQ(wf.two_valued, gf.two_valued) << where << " block " << want.id;
    EXPECT_EQ(wf.always_unknown, gf.always_unknown)
        << where << " block " << want.id;
    EXPECT_EQ(analyzer.AtMostOneMember(want), analyzer.AtMostOneMember(got))
        << where << " block " << want.id;
  }
  ASSERT_EQ(want.children.size(), got.children.size()) << where;
  want_path->push_back(&want);
  got_path->push_back(&got);
  for (size_t i = 0; i < want.children.size(); ++i) {
    ExpectSameFacts(analyzer, *want.children[i], *got.children[i], want_path,
                    got_path, where);
  }
  want_path->pop_back();
  got_path->pop_back();
}

TEST_F(PreparedTest, BoundParametersGiveAdHocPropertyFacts) {
  const PropertyAnalyzer analyzer(*catalog_);
  for (const Case& c : Cases()) {
    const std::string where = Describe(c);
    Result<PreparedTree> prepared = BindPrepared(kShapes[c.shape].sql,
                                                 *catalog_);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    BindArgs(c.args, &prepared->params);
    Result<QueryBlockPtr> adhoc =
        ParseAndBind(Substitute(kShapes[c.shape].sql, c.args), *catalog_);
    ASSERT_TRUE(adhoc.ok()) << where << ": " << adhoc.status().ToString();
    std::vector<const QueryBlock*> want_path;
    std::vector<const QueryBlock*> got_path;
    ExpectSameFacts(analyzer, **adhoc, *prepared->root, &want_path, &got_path,
                    where);
  }
}

// Until EXECUTE a parameter is no constant: the verifier at PREPARE judges
// the plan for every argument, so a `$n` must not pass for the NULL an
// unbound slot evaluates to.
TEST_F(PreparedTest, ParametersAreOpaqueUntilExecute) {
  const std::string sql = kShapes[5].sql;  // flat
  ASSERT_OK_AND_ASSIGN(PreparedTree prepared, BindPrepared(sql, *catalog_));
  EXPECT_EQ(prepared.params.count, 2);
  EXPECT_TRUE(prepared.params.slots->empty());
  const ParamExpr param(0, prepared.params.slots);
  EXPECT_EQ(BoundConstant(param), nullptr);

  const PropertyAnalyzer analyzer(*catalog_);
  EXPECT_EQ(analyzer.Analyze(*prepared.root).card, CardBound::kMany);
  BindArgs({Value::Null(), Value::String("1-URGENT")}, &prepared.params);
  ASSERT_NE(BoundConstant(param), nullptr);
  EXPECT_TRUE(BoundConstant(param)->is_null());
  EXPECT_EQ(analyzer.Analyze(*prepared.root).card, CardBound::kZero);
}

}  // namespace
}  // namespace nestra
