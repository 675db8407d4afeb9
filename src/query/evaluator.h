// The LyriC query evaluator — the paper's "naive implementation" (§5),
// operating directly on the object database.
//
// Evaluation follows the formal XSQL semantics of §2.2: FROM variables
// range over class extents; WHERE is evaluated per substitution, with
// path-expression predicates extending the substitution at bracket
// selectors (a pragmatic left-to-right binding order — bind a variable
// via FROM or an earlier conjunct before using it); SELECT items are
// evaluated under each surviving substitution, constructing new CST
// objects for projection formulas and running exact LPs for MAX/MIN.
// CREATE VIEW materializes the result as a new subclass (higher-order
// class variables supported: a view named by a FROM variable creates one
// class per binding of that variable). Execute runs in two halves:
// Evaluate computes the answer without changing the database, keeping a
// view's rows, and Install materializes them — so a server can evaluate
// a view under a shared lock and take its exclusive lock only to install.

#ifndef LYRIC_QUERY_EVALUATOR_H_
#define LYRIC_QUERY_EVALUATOR_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "constraint/canonical.h"
#include "exec/governor.h"
#include "exec/scheduler.h"
#include "object/database.h"
#include "obs/query_log.h"
#include "query/ast.h"
#include "query/binding.h"
#include "query/result_set.h"

namespace lyric {

/// Evaluator knobs.
struct EvalOptions {
  /// Materialize SELECT projections by quantifier elimination (prints the
  /// simplified constraints the paper shows). Turn off to keep lazy
  /// existential bodies — constant-time projection, opaque output.
  bool eager_select_projection = true;
  /// Canonicalization level for created CST objects. The default runs the
  /// [BJM93] conjunctive canonical form including LP-based redundant-atom
  /// removal, matching the simplified answers the paper prints; kCheap
  /// skips the per-atom LP calls (bench/bench_canonical quantifies the
  /// trade).
  CanonicalLevel canonical_level = CanonicalLevel::kRedundancy;
  /// Safety valve on result size: evaluation stops once the result holds
  /// this many rows. The truncation is flagged on the ResultSet
  /// (`truncated()`) and counted as `evaluator.rows_truncated`.
  size_t max_rows = 1000000;
  /// Run the static analyzer before evaluating: schema typos and
  /// bind-before-use mistakes fail fast with positioned messages instead
  /// of surfacing mid-evaluation. Off by default so that exploratory
  /// queries over half-built schemas still run.
  bool analyze_first = false;
  /// Record a per-query obs::QueryProfile (stage span tree + counter
  /// deltas) and attach it to the ResultSet. Off by default: with no
  /// collector installed every obs::Span is a single null check.
  bool collect_trace = false;
  /// Slow-query threshold in milliseconds: a query slower than this is
  /// marked slow in the per-query log and its full per-stage profile is
  /// promoted into the log record (a trace is collected for every query
  /// while the threshold is armed, even with collect_trace off — the
  /// profile still only attaches to the ResultSet under collect_trace).
  /// Unset defaults to LYRIC_SLOW_MS; 0 disables promotion.
  std::optional<uint64_t> slow_ms;
  /// -- Resource governor (docs/ROBUSTNESS.md) -------------------------
  /// Per-query limits, enforced cooperatively by the constraint kernels.
  /// A trip never fails the query: Execute returns an OK Result whose
  /// ResultSet carries the partial rows, the typed trip Status
  /// (kDeadlineExceeded / kResourceExhausted via governor_status()) and a
  /// GovernorReport of the progress made. All four default from the
  /// environment (LYRIC_DEADLINE_MS, LYRIC_MEMORY_BUDGET); unset means
  /// unlimited, and with no limit set the governor costs nothing.
  /// Wall-clock deadline for the whole query, in milliseconds.
  std::optional<uint64_t> deadline_ms =
      exec::GovernorLimits::FromEnv().deadline_ms;
  /// Budget in bytes for kernel-accounted transient allocations.
  std::optional<uint64_t> memory_budget =
      exec::GovernorLimits::FromEnv().memory_budget;
  /// Cap on total simplex pivots across the query.
  std::optional<uint64_t> max_pivots;
  /// Cap on total DNF disjuncts materialized across the query.
  std::optional<uint64_t> max_disjuncts;
  /// -- Admission control (docs/ROBUSTNESS.md) -------------------------
  /// Every Execute passes through a QueryScheduler before evaluating:
  /// with no limits configured admission is free; with a cap the query
  /// may queue or be shed with a typed kUnavailable + retry-after. The
  /// scheduler's limits are its own (QueryScheduler::Configure, or
  /// LYRIC_MAX_CONCURRENT / LYRIC_QUEUE_CAPACITY / LYRIC_QUEUE_TIMEOUT_MS
  /// for the global one); a query only declares its deadline and budget.
  /// Admission goes through this scheduler when set (lyric_serverd's
  /// flag-configured instance, tests), QueryScheduler::Global() otherwise.
  exec::QueryScheduler* scheduler = nullptr;
  /// Retry policy for transient (kUnavailable) Execute failures —
  /// admission sheds and injected transport faults. Unset defaults to
  /// RetryPolicy::FromEnv() (LYRIC_RETRY=retries[:base_ms[:seed]]; retry
  /// disabled when the variable is unset or malformed).
  std::optional<exec::RetryPolicy> retry;
};

/// Executes LyriC queries against a Database.
class Evaluator {
 public:
  explicit Evaluator(Database* db, EvalOptions options = EvalOptions())
      : db_(db), options_(options) {}

  /// Parses and executes: Evaluate, then Install.
  Result<ResultSet> Execute(const std::string& query_text);
  /// Executes a parsed query.
  Result<ResultSet> Execute(const ast::Query& query);

  /// The first half of Execute: parses and evaluates without changing the
  /// database (only CST objects are interned, which is thread-safe), so
  /// readers may share it meanwhile. A CREATE VIEW's rows are kept, with
  /// the bindings that produced them, for Install. Every Evaluate must be
  /// followed by one Install.
  Result<ResultSet> Evaluate(const std::string& query_text);
  /// The second half: materializes the view rows the last Evaluate kept,
  /// in scan order — exactly the rows `evaluated` returns, so a governed
  /// partial or a `max_rows` truncation installs what it answers, and an
  /// evaluation error installs nothing — then appends the query's log
  /// record. Returns `evaluated`, or the error an install failed with;
  /// rows installed before that error stay in the database. The caller
  /// must hold the database exclusively.
  Result<ResultSet> Install(Result<ResultSet> evaluated);

  /// Names of classes the last CREATE VIEW created.
  const std::vector<std::string>& created_classes() const {
    return created_classes_;
  }

 private:
  // The shared front door behind Evaluate and Execute: installs a trace
  // session when needed (collect_trace, or a slow-query threshold is
  // armed), parses `text` when `parsed` is null, runs the retry loop, and
  // begins the QueryLogRecord that Install completes and appends. Exactly
  // one of text/parsed is non-null.
  Result<ResultSet> EvaluateLogged(const std::string* text,
                                   const ast::Query* parsed);
  // The untraced evaluation pipeline. ExecuteWithRetry retries transient
  // failures (shed admissions, injected faults) under the configured
  // RetryPolicy; ExecuteImpl asks the scheduler for a slot, then
  // evaluates. Both record into `*admission`, which EvaluateLogged owns:
  // the retry count, and the mode and queue wait of the last attempt.
  Result<ResultSet> ExecuteWithRetry(const ast::Query& query,
                                     AdmissionInfo* admission);
  Result<ResultSet> ExecuteImpl(const ast::Query& query,
                                AdmissionInfo* admission);
  Result<std::vector<Binding>> EnumerateFrom(const ast::Query& query) const;
  Result<std::vector<Binding>> EvalWhere(const ast::WhereExpr& where,
                                         const Binding& binding,
                                         const std::set<std::string>& declared,
                                         int depth) const;
  Result<std::vector<std::vector<Oid>>> EvalSelect(
      const ast::Query& query, const Binding& binding,
      const std::set<std::string>& declared);
  Result<Oid> EvalOptimize(const ast::SelectItem& item, const Binding& binding,
                           const std::set<std::string>& declared);
  Status MaterializeView(const ast::Query& query, const Binding& binding,
                         const std::vector<Oid>& row);

  Database* db_;
  EvalOptions options_;
  std::vector<std::string> created_classes_;
  // What Evaluate leaves for Install: the parsed text (when Evaluate
  // parsed it), the query it evaluated, a view's (binding, row) pairs in
  // scan order, and the log record with everything but the outcome.
  std::optional<ast::Query> parsed_;
  const ast::Query* evaluated_ = nullptr;
  std::vector<std::pair<Binding, std::vector<Oid>>> view_rows_;
  obs::QueryLogRecord log_record_;
};

}  // namespace lyric

#endif  // LYRIC_QUERY_EVALUATOR_H_
