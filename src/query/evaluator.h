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
// Evaluate computes the answer without changing the database and returns
// it as an Evaluation, keeping a view's rows, and Install consumes that
// value to materialize them — so a server can evaluate a view under a
// shared lock and take its exclusive lock only to install.

#ifndef LYRIC_QUERY_EVALUATOR_H_
#define LYRIC_QUERY_EVALUATOR_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "constraint/canonical.h"
#include "exec/scheduler.h"
#include "object/database.h"
#include "obs/query_context.h"
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
  /// collector in the query's context every obs::Span is a thread-local
  /// load and a null test or two. (The query log's slow-query threshold,
  /// QueryLog::set_slow_ms, collects a trace for the log alone.)
  bool collect_trace = false;
  /// -- Resource governor (docs/ROBUSTNESS.md) -------------------------
  /// Per-query limits, enforced cooperatively by the constraint kernels.
  /// A trip never fails the query: Execute returns an OK Result whose
  /// ResultSet carries the partial rows, the typed trip Status
  /// (kDeadlineExceeded / kResourceExhausted via governor_status()) and a
  /// GovernorReport of the progress made. Unset means unlimited, and
  /// with no limit set the governor costs nothing. (Config::Eval fills
  /// both from LYRIC_DEADLINE_MS and LYRIC_MEMORY_BUDGET.)
  /// Wall-clock deadline for the whole query, in milliseconds.
  std::optional<uint64_t> deadline_ms;
  /// Budget in bytes for kernel-accounted transient allocations, charged
  /// before each is built (exec::GovernorLimits::memory_budget).
  std::optional<uint64_t> memory_budget;
  /// -- Admission control (docs/ROBUSTNESS.md) -------------------------
  /// Every Execute passes through a QueryScheduler before evaluating:
  /// with no limits configured admission is free; with a cap the query
  /// may queue or be shed with a typed kUnavailable + retry-after. The
  /// scheduler's limits are its own (QueryScheduler::Configure); a query
  /// only declares its deadline and budget. Admission goes through this
  /// scheduler when set (tests, lyric_loadgen's flag-configured
  /// instance), QueryScheduler::Global() otherwise.
  exec::QueryScheduler* scheduler = nullptr;
  /// Retry policy for transient (kUnavailable) Execute failures —
  /// admission sheds and injected transport faults. The default never
  /// retries (Config::Eval fills it from LYRIC_RETRY).
  exec::RetryPolicy retry;
};

/// A view's rows in scan order, each with the binding that produced it.
using ViewRows = std::vector<std::pair<Binding, std::vector<Oid>>>;

/// One evaluated query on its way from Evaluator::Evaluate to
/// Evaluator::Install: the parsed query, its answer, a view's rows and
/// the log record with everything but the outcome. Move-only (it owns
/// the parsed query), so an evaluation is installed at most once.
class Evaluation {
 private:
  friend class Evaluator;
  Evaluation(std::optional<ast::Query> query, Result<ResultSet> result,
             ViewRows view_rows, obs::QueryLogRecord log_record)
      : query_(std::move(query)),
        result_(std::move(result)),
        view_rows_(std::move(view_rows)),
        log_record_(std::move(log_record)) {}

  std::optional<ast::Query> query_;  // Unset when the text did not parse.
  Result<ResultSet> result_;
  ViewRows view_rows_;
  obs::QueryLogRecord log_record_;
};

/// Executes LyriC queries against a Database.
class Evaluator {
 public:
  explicit Evaluator(Database* db, EvalOptions options = EvalOptions())
      : db_(db), options_(options) {}

  /// Parses and executes: Install(Evaluate(query_text)).
  Result<ResultSet> Execute(const std::string& query_text);

  /// The first half of Execute, and its front door: parses and evaluates
  /// without changing the database (only CST objects are interned, which
  /// is thread-safe), so readers may share it meanwhile. A CREATE VIEW's
  /// rows are kept in the Evaluation, with the bindings that produced
  /// them, for Install.
  Evaluation Evaluate(const std::string& query_text);
  /// The second half: materializes the view rows `evaluation` kept, in
  /// scan order — exactly the rows it answers, so a governed partial or a
  /// `max_rows` truncation installs what it answers, and an evaluation
  /// error installs nothing — then appends the query's log record.
  /// Returns the evaluated answer, or the error an install failed with;
  /// rows installed before that error stay in the database. The caller
  /// must hold the database exclusively.
  Result<ResultSet> Install(Evaluation evaluation);

  /// Names of classes the last CREATE VIEW created.
  const std::vector<std::string>& created_classes() const {
    return created_classes_;
  }

 private:
  // One admission attempt: asks the scheduler for a slot, then evaluates,
  // attaching the governor token (when any limit is set) to `*context`
  // for the scan. Records the mode and queue wait into `*admission` and
  // a view's rows into `*view_rows`.
  Result<ResultSet> ExecuteImpl(const ast::Query& query,
                                obs::QueryContext* context,
                                AdmissionInfo* admission,
                                ViewRows* view_rows);
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
};

}  // namespace lyric

#endif  // LYRIC_QUERY_EVALUATOR_H_
