#include "workloads.h"

#include <utility>

#include "common/date.h"
#include "tpch/queries.h"
#include "tpch/random.h"

namespace nestra {
namespace e2ebench {

namespace {

// The paper's X axes at the bench scale of bench/bench_common.h: Query 1
// sweeps the outer block over 400..1600 orders; Queries 2/3 sweep the part
// block over 1.2K..4.8K parts (p_size <= hi selects ~120*hi of 6000 parts)
// with ~1.6K partsupp rows (availqty < 667) and ~1.2K lineitem rows
// (l_quantity = 25).
constexpr int64_t kOuterOrders[] = {400, 800, 1200, 1600};
constexpr int64_t kPartSizeHis[] = {10, 20, 30, 40};
constexpr int64_t kAvailQtyMax = 667;
constexpr int64_t kQuantity = 25;

// Distinct data per seed, same sizes and distributions.
uint64_t DataSeed(uint64_t seed) { return 20050614 + 7919 * seed; }

TpchConfig BenchScaleTpch(uint64_t seed) {
  TpchConfig config;
  config.num_orders = 15000;
  config.num_parts = 6000;
  config.num_suppliers = 300;
  config.seed = DataSeed(seed);
  return config;
}

// o_orderdate window [lo, hi) holding ~`rows` orders around the median
// date, as in bench/bench_common.h's OrderDateWindow.
Result<std::pair<std::string, std::string>> OrderWindow(const Catalog& catalog,
                                                        int64_t rows) {
  NESTRA_ASSIGN_OR_RETURN(const Table* orders, catalog.GetTable("orders"));
  const double frac =
      static_cast<double>(rows) / static_cast<double>(orders->num_rows());
  NESTRA_ASSIGN_OR_RETURN(
      Value lo, ColumnQuantile(*orders, "o_orderdate", 0.5 - frac / 2));
  NESTRA_ASSIGN_OR_RETURN(
      Value hi, ColumnQuantile(*orders, "o_orderdate", 0.5 + frac / 2));
  return std::make_pair(FormatDate(lo.int64()), FormatDate(hi.int64()));
}

Statement AdHoc(std::string label, std::string sql) {
  Statement s;
  s.label = std::move(label);
  s.sql = std::move(sql);
  return s;
}

std::string Query1Sql(const std::pair<std::string, std::string>& window) {
  return MakeQuery1(window.first, window.second);
}

// The paper's Figures 4-9: Q1, Q2a, Q2b and Q3a/b/c in all three
// correlation variants, at every swept selectivity.
Status PaperScripts(const Catalog& catalog, WorkloadSpec* spec) {
  std::vector<Statement> script;
  for (const int64_t rows : kOuterOrders) {
    NESTRA_ASSIGN_OR_RETURN(auto window, OrderWindow(catalog, rows));
    script.push_back(
        AdHoc("Q1/outer=" + std::to_string(rows), Query1Sql(window)));
  }
  struct Shape {
    const char* name;
    bool query3;
    OuterLink outer;
    InnerLink inner;
  };
  const Shape shapes[] = {
      {"Q2a", false, OuterLink::kAny, InnerLink::kNotExists},
      {"Q2b", false, OuterLink::kAll, InnerLink::kNotExists},
      {"Q3a", true, OuterLink::kAll, InnerLink::kExists},
      {"Q3b", true, OuterLink::kAll, InnerLink::kNotExists},
      {"Q3c", true, OuterLink::kAny, InnerLink::kExists},
  };
  const std::pair<const char*, Query3Variant> variants[] = {
      {"a", Query3Variant::kVariantA},
      {"b", Query3Variant::kVariantB},
      {"c", Query3Variant::kVariantC}};
  for (const Shape& shape : shapes) {
    for (const auto& [vname, variant] : variants) {
      if (!shape.query3 && variant != Query3Variant::kVariantA) continue;
      for (const int64_t hi : kPartSizeHis) {
        std::string label = shape.name;
        if (shape.query3) label += std::string("(") + vname + ")";
        label += "/parts=" + std::to_string(hi * 120);
        script.push_back(AdHoc(
            label, shape.query3
                       ? MakeQuery3(1, hi, kAvailQtyMax, kQuantity, shape.outer,
                                    shape.inner, variant)
                       : MakeQuery2(1, hi, kAvailQtyMax, kQuantity,
                                    shape.outer, shape.inner)));
      }
    }
  }
  spec->scripts = {std::move(script)};
  return Status::OK();
}

// Negative links (> ALL, < ALL, NOT EXISTS, NOT IN) whose linked columns
// hold NULLs, so no link is provably two-valued and the 3VL paths run.
Status NullScripts(const Catalog& catalog, WorkloadSpec* spec) {
  std::vector<Statement> script;
  for (const int64_t rows : kOuterOrders) {
    NESTRA_ASSIGN_OR_RETURN(auto window, OrderWindow(catalog, rows));
    const std::string tag = "/outer=" + std::to_string(rows);
    script.push_back(AdHoc("Q1" + tag, Query1Sql(window)));
    script.push_back(AdHoc(
        "NotInLineitem" + tag,
        "select o_orderkey, o_orderpriority from orders where o_orderdate >= '" +
            window.first + "' and o_orderdate < '" + window.second +
            "' and o_totalprice not in (select l_extendedprice from lineitem "
            "where l_orderkey = o_orderkey and l_quantity < 25)"));
  }
  for (const int64_t hi : kPartSizeHis) {
    const std::string tag = "/parts=" + std::to_string(hi * 120);
    script.push_back(AdHoc("Q2b" + tag,
                           MakeQuery2(1, hi, kAvailQtyMax, kQuantity,
                                      OuterLink::kAll, InnerLink::kNotExists)));
    script.push_back(AdHoc(
        "Q3b(a)" + tag,
        MakeQuery3(1, hi, kAvailQtyMax, kQuantity, OuterLink::kAll,
                   InnerLink::kNotExists, Query3Variant::kVariantA)));
    script.push_back(AdHoc(
        "NotInPartsupp" + tag,
        "select p_partkey, p_name from part where p_size >= 1 and p_size <= " +
            std::to_string(hi) +
            " and p_retailprice not in (select ps_supplycost from partsupp "
            "where ps_partkey = p_partkey and ps_availqty < 5000)"));
  }
  spec->scripts = {std::move(script)};
  return Status::OK();
}

// ---- oltp_sessions: seeded ad hoc statements and prepared executions ----

// Literal SQL text of a parameter value.
std::string Literal(const Value& v) {
  if (v.is_string()) return "'" + v.string() + "'";
  return v.ToString();
}

// Replaces $1..$9 in `sql` by the literals of `args`.
std::string Substitute(const std::string& sql, const std::vector<Value>& args) {
  std::string out;
  for (size_t i = 0; i < sql.size(); ++i) {
    if (sql[i] == '$' && i + 1 < sql.size() && sql[i + 1] >= '1' &&
        sql[i + 1] <= '9') {
      out += Literal(args[static_cast<size_t>(sql[i + 1] - '1')]);
      ++i;
    } else {
      out += sql[i];
    }
  }
  return out;
}

const char* kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                             "4-NOT SPECIFIED", "5-LOW"};

std::vector<PreparedShape> OltpShapes() {
  return {
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
}

std::vector<Value> OltpArgs(size_t shape, int64_t date_lo, int64_t date_hi,
                            Rng* rng) {
  auto date = [&](int64_t days) { return Value::String(FormatDate(days)); };
  switch (shape) {
    case 0: {
      const int64_t lo = rng->UniformInt(date_lo, date_hi - 400);
      return {date(lo), date(lo + rng->UniformInt(30, 400))};
    }
    case 1:
    case 2: {
      const int64_t lo = rng->UniformInt(1, 25);
      return {Value::Int64(lo), Value::Int64(lo + rng->UniformInt(5, 25)),
              Value::Int64(rng->UniformInt(1000, 9999)),
              Value::Int64(rng->UniformInt(1, 50))};
    }
    case 3:
      return {Value::Int64(rng->UniformInt(5, 50)),
              Value::Int64(rng->UniformInt(100, 9999))};
    case 4:
      return {date(rng->UniformInt(date_lo, date_hi)),
              Value::Int64(rng->UniformInt(10, 50))};
    default:
      return {Value::Int64(rng->UniformInt(10000, 500000)),
              Value::String(kPriorities[rng->UniformInt(0, 4)])};
  }
}

// Each client alternates an ad hoc statement and a prepared execution of
// the same shape, cycling through the shapes from a client-specific offset;
// constants are drawn per statement, so texts rarely repeat.
constexpr int kOltpScriptLength = 256;

Status OltpScripts(uint64_t seed, WorkloadSpec* spec) {
  NESTRA_ASSIGN_OR_RETURN(const int64_t date_lo, DaysFromCivil(1992, 1, 1));
  NESTRA_ASSIGN_OR_RETURN(const int64_t date_hi, DaysFromCivil(1998, 8, 2));
  spec->scripts.clear();
  for (int c = 0; c < spec->clients; ++c) {
    Rng rng(DataSeed(seed) * 31 + static_cast<uint64_t>(c));
    std::vector<Statement> script;
    for (int i = 0; i < kOltpScriptLength; ++i) {
      const size_t shape =
          static_cast<size_t>(i / 2 + c) % spec->shapes.size();
      const PreparedShape& ps = spec->shapes[shape];
      Statement s;
      s.args = OltpArgs(shape, date_lo, date_hi, &rng);
      s.sql = Substitute(ps.sql, s.args);
      if (i % 2 == 1) {
        s.prepared = ps.name;
        s.label = "execute " + ps.name;
      } else {
        s.label = "adhoc " + ps.name;
        s.args.clear();
      }
      script.push_back(std::move(s));
    }
    spec->scripts.push_back(std::move(script));
  }
  return Status::OK();
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"paper_serial", "nulls_parallel", "oltp_sessions"};
}

Result<WorkloadSpec> MakeWorkload(const std::string& name, uint64_t seed) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "paper_serial") {
    spec.why =
        "the paper's figure queries (Q1, Q2a/b, Q3a/b/c in variants a/b/c) "
        "on NOT NULL data, 1 engine thread, cold pool 1/32 of the data: "
        "executor and operator work";
    spec.tpch = BenchScaleTpch(seed);
    spec.tpch.declare_not_null = true;
    spec.io.min_pool_pages = 1;  // pool = 1/32 of the data pages
    spec.reset_io_per_statement = true;
    spec.setup_repeats = 9;
  } else if (name == "nulls_parallel") {
    spec.why =
        "negative links (NOT IN, > ALL, < ALL, NOT EXISTS) over 5% NULL "
        "columns on 2 engine threads: 3VL pseudo-selection, pipeline DAG "
        "and thread pool";
    spec.tpch = BenchScaleTpch(seed);
    spec.tpch.null_l_extendedprice = 0.05;
    spec.tpch.null_ps_supplycost = 0.05;
    spec.io.min_pool_pages = 1;
    spec.engine_threads = 2;
    spec.reset_io_per_statement = true;
    spec.setup_repeats = 9;
  } else if (name == "oltp_sessions") {
    spec.why =
        "4 sessions of seeded ad hoc and prepared statements on tables that "
        "fit the pool, with table reloads: front end, admission, schema "
        "lock, prepared reuse";
    spec.tpch = BenchScaleTpch(seed);
    spec.tpch.scale = 0.02;
    spec.tpch.declare_not_null = true;
    spec.clients = 4;
    spec.max_in_flight = 4;
    spec.write_every = 64;
    spec.setup_repeats = 41;
    spec.reference_every = 16;  // ~3% of the loop, as on the others
    spec.shapes = OltpShapes();
  } else {
    return Status::InvalidArgument("unknown workload '" + name + "'");
  }
  return spec;
}

Status MakeScripts(const Catalog& catalog, uint64_t seed, WorkloadSpec* spec) {
  if (spec->name == "paper_serial") return PaperScripts(catalog, spec);
  if (spec->name == "nulls_parallel") return NullScripts(catalog, spec);
  return OltpScripts(seed, spec);
}

}  // namespace e2ebench
}  // namespace nestra
