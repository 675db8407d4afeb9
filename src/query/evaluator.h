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
// class per binding of that variable).

#ifndef LYRIC_QUERY_EVALUATOR_H_
#define LYRIC_QUERY_EVALUATOR_H_

#include <cstdint>
#include <optional>

#include "constraint/canonical.h"
#include "exec/governor.h"
#include "exec/scheduler.h"
#include "object/database.h"
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
  /// When set, re-bounds the process-wide SolverCache before evaluation
  /// (entries; 0 disables memoization). Unset leaves the global
  /// configuration (LYRIC_CACHE_CAPACITY env, default 4096) alone.
  std::optional<size_t> cache_capacity;
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
  /// Every Execute passes through the process-wide QueryScheduler before
  /// evaluating: with no limits configured admission is free; with a cap
  /// the query may queue or be shed with a typed kUnavailable +
  /// retry-after. The three knobs below, when set,
  /// reconfigure the scheduler (0 clears the corresponding limit) — the
  /// same idiom as cache_capacity. Process defaults come from
  /// LYRIC_MAX_CONCURRENT / LYRIC_QUEUE_CAPACITY / LYRIC_QUEUE_TIMEOUT_MS.
  /// Cap on concurrently executing queries process-wide.
  std::optional<uint64_t> max_concurrent_queries;
  /// Cap on queries waiting for a slot (beyond it arrivals are shed).
  std::optional<uint64_t> queue_capacity;
  /// Max milliseconds an arrival may wait before being shed.
  std::optional<uint64_t> queue_timeout_ms;
  /// Test seam: admission goes through this scheduler instead of
  /// QueryScheduler::Global() when set.
  exec::QueryScheduler* scheduler = nullptr;
  /// Retry policy for transient (kUnavailable) Execute failures —
  /// admission sheds and injected transport faults. Unset defaults to
  /// RetryPolicy::FromEnv() (LYRIC_RETRY=retries[:base_ms[:seed]]; retry
  /// disabled when the variable is unset).
  std::optional<exec::RetryPolicy> retry;
};

/// Executes LyriC queries against a Database.
class Evaluator {
 public:
  explicit Evaluator(Database* db, EvalOptions options = EvalOptions())
      : db_(db), options_(options) {}

  /// Parses and executes.
  Result<ResultSet> Execute(const std::string& query_text);
  /// Executes a parsed query.
  Result<ResultSet> Execute(const ast::Query& query);

  /// Names of classes the last CREATE VIEW created.
  const std::vector<std::string>& created_classes() const {
    return created_classes_;
  }

 private:
  /// The WHERE/SELECT product of one FROM binding: every surviving
  /// (extended) binding paired with its SELECT rows, in evaluation order;
  /// `status` carries the first failure.
  struct BindingOutcome {
    Status status = Status::OK();
    std::vector<std::pair<Binding, std::vector<std::vector<Oid>>>>
        per_survivor;
  };

  // The shared front door behind both public Execute overloads: installs
  // a trace session when needed (collect_trace, or a slow-query threshold
  // is armed), parses `text` when `parsed` is null, runs the retry loop,
  // and appends one QueryLogRecord per outermost evaluation. Exactly one
  // of text/parsed is non-null.
  Result<ResultSet> ExecuteLogged(const std::string* text,
                                  const ast::Query* parsed);
  // The untraced evaluation pipeline. Admission (scheduling) happens at
  // the top of ExecuteImpl; ExecuteWithRetry retries transient failures
  // (shed admissions, injected faults) under the configured RetryPolicy,
  // counting retries into *retries for the query log.
  Result<ResultSet> ExecuteWithRetry(const ast::Query& query,
                                     uint32_t* retries);
  Result<ResultSet> ExecuteImpl(const ast::Query& query);
  /// Runs WHERE + SELECT for one base binding (no ResultSet mutation, no
  /// view materialization).
  BindingOutcome EvalOneBinding(const ast::Query& query, const Binding& base,
                                const std::set<std::string>& declared);
  /// Commits one outcome's rows into `out` in order; returns false when
  /// the result hit max_rows (caller stops committing). Runs view
  /// materialization for view queries.
  Result<bool> CommitOutcome(const ast::Query& query, BindingOutcome outcome,
                             ResultSet* out);
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
