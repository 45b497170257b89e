#include "server/session.h"

#include <cctype>
#include <chrono>
#include <mutex>
#include <shared_mutex>

#include "common/date.h"
#include "common/thread_pool.h"
#include "nra/physical_plan.h"
#include "plan/binder.h"
#include "server/connection_manager.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "telemetry/engine_metrics.h"
#include "telemetry/slow_query.h"
#include "telemetry/trace.h"

namespace nestra {

namespace {

using Clock = std::chrono::steady_clock;

// First word of `sql`, uppercased — enough to route the PREPARE / EXECUTE /
// DEALLOCATE statement forms without tokenizing plain SELECTs twice.
std::string FirstWordUpper(const std::string& sql) {
  size_t i = 0;
  while (i < sql.size() &&
         std::isspace(static_cast<unsigned char>(sql[i]))) {
    ++i;
  }
  std::string word;
  while (i < sql.size() &&
         std::isalpha(static_cast<unsigned char>(sql[i]))) {
    word += static_cast<char>(
        std::toupper(static_cast<unsigned char>(sql[i++])));
  }
  return word;
}

void CountError() {
  if (telemetry::MetricsEnabled()) {
    telemetry::Metrics().query_errors_total->Add(1);
  }
}

void CollectReferencedTables(const QueryBlock& block,
                             std::set<std::string>* out) {
  for (const QueryBlock::TableRef& ref : block.tables) out->insert(ref.table);
  for (const QueryBlockPtr& child : block.children) {
    CollectReferencedTables(*child, out);
  }
}

}  // namespace

Session::Session(ConnectionManager* manager, int64_t id)
    : manager_(manager),
      id_(id),
      label_("s" + std::to_string(id)),
      mem_(label_),
      options_(manager->options().session_defaults) {
  options_.session_label = label_;
}

// Publishes one finished statement's memory numbers: the session gauge
// keeps the largest per-query peak, the counter accumulates peaks so
// rate() shows memory pressure per session over time.
void Session::RecordQueryMemory(const NraStats& stats) {
  if (!telemetry::MetricsEnabled()) return;
  telemetry::MetricsRegistry::Global()
      .GetGauge("nestra_session_peak_mem_bytes",
                telemetry::PrometheusLabel("session", label_),
                "Largest per-query peak accounted bytes, by session",
                /*deterministic=*/true)
      ->UpdateMax(static_cast<double>(stats.peak_mem_bytes));
  telemetry::MetricsRegistry::Global()
      .GetCounter("nestra_session_mem_bytes_total",
                  telemetry::PrometheusLabel("session", label_),
                  "Sum of per-query peak accounted bytes, by session",
                  /*deterministic=*/true)
      ->Add(static_cast<double>(stats.peak_mem_bytes));
}

Session::~Session() {
  manager_->active_sessions_.fetch_sub(1, std::memory_order_acq_rel);
}

Result<Table> Session::Query(const std::string& sql, NraStats* stats) {
  // The label is re-stamped every statement so callers tweaking options()
  // wholesale (options() = NraOptions::Original()) keep their attribution.
  options_.session_label = label_;
  const std::string word = FirstWordUpper(sql);
  if (word == "PREPARE") return QueryPrepareForm(sql);
  if (word == "EXECUTE") return QueryExecuteForm(sql, stats);
  if (word == "DEALLOCATE") return QueryDeallocateForm(sql);

  NraStats local;
  if (stats == nullptr) stats = &local;
  AdmissionController::Slot slot(&manager_->admission_);
  std::shared_lock<std::shared_mutex> schema_lock(manager_->schema_mu_);
  telemetry::TraceSpan span("session", label_ + ":query");
  // The executor's query tracker (created inside Execute) picks up this
  // session as its parent via the thread-local installed here, folding the
  // query's bytes into the session totals on destruction.
  ScopedSessionMemory scoped_mem(&mem_);
  NraExecutor executor(*manager_->catalog_, options_);
  Result<Table> result = executor.ExecuteStatementSql(sql, stats);
  RecordQueryMemory(*stats);
  if (result.ok()) {
    ++stats_.queries;
    if (telemetry::MetricsEnabled()) {
      telemetry::MetricsRegistry::Global()
          .GetCounter("nestra_session_queries_total",
                      telemetry::PrometheusLabel("session", label_),
                      "Statements executed OK, by session",
                      /*deterministic=*/false)
          ->Add(1);
    }
  } else {
    ++stats_.errors;
  }
  return result;
}

Status Session::Prepare(const std::string& name, const std::string& sql) {
  options_.session_label = label_;
  telemetry::TraceSpan span("session", label_ + ":prepare:" + name);
  // Prepare reads the catalog (bind + verify + version capture); the shared
  // schema lock keeps DDL from changing tables mid-prepare.
  std::shared_lock<std::shared_mutex> schema_lock(manager_->schema_mu_);

  Result<AstSelectPtr> ast = ParseSelect(sql);
  if (!ast.ok()) {
    ++stats_.errors;
    CountError();
    return ast.status();
  }
  ParamBinding params;
  Result<QueryBlockPtr> root = BindQuery(**ast, *manager_->catalog_, &params);
  if (!root.ok()) {
    ++stats_.errors;
    CountError();
    return root.status();
  }
  const bool metrics = telemetry::MetricsEnabled();
  if (metrics) {
    const telemetry::EngineMetrics& m = telemetry::Metrics();
    m.statements_parsed_total->Add(1);
    m.statements_bound_total->Add(1);
  }
  // Build the plan and verify it once, here; ExecutePrepared runs with
  // verify_plans off and builds its own plan from the bound arguments, so
  // the verifier (and its plans_verified_total counter) never re-runs per
  // EXECUTE — the observable half of "parse+plan+verify paid once".
  if (options_.verify_plans) {
    Status verified = VerifyPlan(**root, *manager_->catalog_, options_);
    if (metrics) {
      const telemetry::EngineMetrics& m = telemetry::Metrics();
      m.plans_verified_total->Add(1);
      if (!verified.ok()) {
        m.verify_failures_total->Add(1);
        m.query_errors_total->Add(1);
      }
    }
    if (!verified.ok()) {
      ++stats_.errors;
      return verified;
    }
  }

  Prepared ps;
  ps.sql = sql;
  ps.root = std::move(*root);
  ps.slots = params.slots;
  ps.num_params = params.count;
  ps.date_params = params.date_params;
  std::set<std::string> tables;
  CollectReferencedTables(*ps.root, &tables);
  for (const std::string& t : tables) {
    ps.table_versions.emplace_back(t, manager_->catalog_->TableVersion(t));
  }
  ps.options = options_;
  prepared_[name] = std::move(ps);
  ++stats_.prepares;
  if (metrics) telemetry::Metrics().statements_prepared_total->Add(1);
  return Status::OK();
}

Result<Table> Session::ExecutePrepared(const std::string& name,
                                       const std::vector<Value>& args,
                                       NraStats* stats,
                                       QueryProfile* profile) {
  const auto it = prepared_.find(name);
  if (it == prepared_.end()) {
    ++stats_.errors;
    CountError();
    return Status::NotFound("no prepared statement named '" + name +
                            "' in session " + label_);
  }
  Result<Table> result = RunPrepared(it->second, args, stats, profile);
  if (result.ok()) {
    ++stats_.queries;
    ++stats_.prepared_executions;
    if (telemetry::MetricsEnabled()) {
      const telemetry::EngineMetrics& m = telemetry::Metrics();
      m.prepared_executions_total->Add(1);
      telemetry::MetricsRegistry::Global()
          .GetCounter("nestra_session_queries_total",
                      telemetry::PrometheusLabel("session", label_),
                      "Statements executed OK, by session",
                      /*deterministic=*/false)
          ->Add(1);
    }
  } else {
    ++stats_.errors;
    CountError();
  }
  return result;
}

Result<Table> Session::RunPrepared(Prepared& ps,
                                   const std::vector<Value>& args,
                                   NraStats* stats, QueryProfile* profile) {
  if (static_cast<int>(args.size()) != ps.num_params) {
    return Status::InvalidArgument(
        "prepared statement expects " + std::to_string(ps.num_params) +
        " parameter(s), got " + std::to_string(args.size()));
  }
  // Bind-time date coercion cannot see EXECUTE-time values, so string
  // arguments destined for DATE comparisons are coerced here.
  std::vector<Value> bound = args;
  for (int slot : ps.date_params) {
    if (slot < static_cast<int>(bound.size()) && bound[slot].is_string()) {
      NESTRA_ASSIGN_OR_RETURN(int64_t days,
                              ParseDate(bound[slot].string()));
      bound[slot] = Value::Date(days);
    }
  }

  AdmissionController::Slot slot(&manager_->admission_);
  std::shared_lock<std::shared_mutex> schema_lock(manager_->schema_mu_);
  // Staleness check under the schema lock, so no DDL can slip between the
  // version comparison and execution. Any change to a referenced table —
  // re-register, drop, NOT NULL edit — invalidates the plan (its table
  // pointers, observed-NULL proofs, and plan-shape decisions were captured
  // at prepare time).
  for (const auto& [table, version] : ps.table_versions) {
    const uint64_t now = manager_->catalog_->TableVersion(table);
    if (now != version) {
      return Status::InvalidArgument(
          "prepared statement is stale: table '" + table +
          "' changed since PREPARE (version " + std::to_string(version) +
          " -> " + std::to_string(now) + "); PREPARE it again");
    }
  }
  // Binds every parameter at once. From here on each `$n` is a constant to
  // the scan kernels, zone maps, estimator and property analyzer, exactly
  // like the literal of the equivalent ad hoc statement.
  *ps.slots = std::move(bound);

  NraOptions exec_options = ps.options;
  exec_options.session_label = label_;
  // Verified once at Prepare; see there.
  exec_options.verify_plans = false;
  telemetry::TraceSpan span("session", label_ + ":execute");
  const bool slow_log = exec_options.slow_query_ms > 0;
  Clock::time_point start;
  if (slow_log) start = Clock::now();
  NraStats local;
  if (stats == nullptr) stats = &local;
  ScopedSessionMemory scoped_mem(&mem_);
  NraExecutor executor(*manager_->catalog_, exec_options);
  Result<Table> result = executor.Execute(*ps.root, stats, profile);
  RecordQueryMemory(*stats);
  if (slow_log) {
    const double total_ms =
        std::chrono::duration<double>(Clock::now() - start).count() * 1e3;
    if (total_ms > exec_options.slow_query_ms) {
      telemetry::SlowQueryRecord rec;
      rec.sql = ps.sql;
      rec.total_ms = total_ms;
      rec.join_ms = stats->join_seconds * 1e3;
      rec.nest_select_ms = stats->nest_select_seconds * 1e3;
      rec.output_rows = stats->output_rows;
      rec.peak_mem_bytes = stats->peak_mem_bytes;
      rec.num_threads = ResolveNumThreads(exec_options.num_threads);
      rec.vectorized = exec_options.vectorized;
      rec.ok = result.ok();
      rec.session = label_;
      telemetry::LogSlowQuery(rec);
    }
  }
  return result;
}

Status Session::Deallocate(const std::string& name) {
  if (prepared_.erase(name) == 0) {
    return Status::NotFound("no prepared statement named '" + name +
                            "' in session " + label_);
  }
  return Status::OK();
}

std::vector<std::string> Session::PreparedNames() const {
  std::vector<std::string> out;
  out.reserve(prepared_.size());
  for (const auto& [name, _] : prepared_) out.push_back(name);
  return out;
}

Result<Table> Session::QueryPrepareForm(const std::string& sql) {
  NESTRA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  // PREPARE <name> AS <select-statement>
  if (tokens.size() < 4 || tokens[1].kind != TokenKind::kIdent ||
      tokens[2].kind != TokenKind::kAs) {
    return Status::ParseError("expected PREPARE <name> AS <select>");
  }
  NESTRA_RETURN_NOT_OK(
      Prepare(tokens[1].text, sql.substr(tokens[3].position)));
  return Table();
}

Result<Table> Session::QueryExecuteForm(const std::string& sql,
                                        NraStats* stats) {
  NESTRA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  // EXECUTE <name> [( literal, ... )]
  if (tokens.size() < 2 || tokens[1].kind != TokenKind::kIdent) {
    return Status::ParseError("expected EXECUTE <name> [(arg, ...)]");
  }
  const std::string& name = tokens[1].text;
  std::vector<Value> args;
  size_t i = 2;
  if (i < tokens.size() && tokens[i].kind == TokenKind::kLParen) {
    ++i;
    while (i < tokens.size() && tokens[i].kind != TokenKind::kRParen) {
      bool negate = false;
      if (tokens[i].kind == TokenKind::kMinus) {
        negate = true;
        ++i;
      }
      if (i >= tokens.size()) break;
      const Token& t = tokens[i];
      switch (t.kind) {
        case TokenKind::kIntLiteral:
          args.push_back(Value::Int64(negate ? -t.int_value : t.int_value));
          break;
        case TokenKind::kFloatLiteral:
          args.push_back(
              Value::Float64(negate ? -t.float_value : t.float_value));
          break;
        case TokenKind::kStringLiteral:
          if (negate) {
            return Status::ParseError(
                "cannot negate a string EXECUTE argument");
          }
          args.push_back(Value::String(t.text));
          break;
        case TokenKind::kNull:
          if (negate) {
            return Status::ParseError("cannot negate NULL");
          }
          args.push_back(Value::Null());
          break;
        default:
          return Status::ParseError(
              "EXECUTE arguments must be literals (int, float, 'string', "
              "NULL)");
      }
      ++i;
      if (i < tokens.size() && tokens[i].kind == TokenKind::kComma) ++i;
    }
    if (i >= tokens.size() || tokens[i].kind != TokenKind::kRParen) {
      return Status::ParseError("expected ')' closing EXECUTE arguments");
    }
    ++i;
  }
  if (i < tokens.size() && tokens[i].kind != TokenKind::kEof) {
    return Status::ParseError("unexpected input after EXECUTE arguments");
  }
  return ExecutePrepared(name, args, stats);
}

Result<Table> Session::QueryDeallocateForm(const std::string& sql) {
  NESTRA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  if (tokens.size() < 2 || tokens[1].kind != TokenKind::kIdent ||
      (tokens.size() > 2 && tokens[2].kind != TokenKind::kEof)) {
    return Status::ParseError("expected DEALLOCATE <name>");
  }
  NESTRA_RETURN_NOT_OK(Deallocate(tokens[1].text));
  return Table();
}

}  // namespace nestra
