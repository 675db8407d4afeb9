// Query results: a relation of oids (§2.2), optionally materialized into
// new objects via OID FUNCTION OF.

#ifndef LYRIC_QUERY_RESULT_SET_H_
#define LYRIC_QUERY_RESULT_SET_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/governor.h"
#include "object/oid.h"
#include "obs/profile.h"
#include "query/diagnostics.h"
#include "util/status.h"

namespace lyric {

/// How admission control treated the evaluation that produced a result
/// (docs/ROBUSTNESS.md state machine). Timing fields are wall-clock
/// facts, not part of the deterministic answer — differential tests
/// compare results without them.
struct AdmissionInfo {
  /// "direct" or "queued" on a result. The query log also records "shed"
  /// (retries ran out) and "off" (the query never reached admission,
  /// e.g. a parse error).
  std::string mode = "off";
  /// Time spent parked in the scheduler's wait queue (0 for direct).
  uint64_t queue_wait_ns = 0;
  /// Transient (kUnavailable) failures retried away before this result.
  uint32_t retries = 0;
};

/// A query result: named columns over rows of oids. Rows are deduplicated
/// (the answer of a query is a set).
class ResultSet {
 public:
  explicit ResultSet(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}
  ResultSet() = default;

  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<std::vector<Oid>>& rows() const { return rows_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Appends a row unless an identical one is present.
  void AddRow(std::vector<Oid> row);

  /// True if some row's first column equals `oid` (convenience for
  /// single-column results).
  bool ContainsOid(const Oid& oid) const;

  /// All values of column `idx` in row order.
  std::vector<Oid> Column(size_t idx) const;

  /// Tabular rendering.
  std::string ToString() const;

  /// True when the evaluator stopped early because the result reached
  /// EvalOptions::max_rows; the rows present are a correct prefix.
  bool truncated() const { return truncated_; }
  void set_truncated(bool truncated) { truncated_ = truncated; }

  /// The observability record of the evaluation that produced this result,
  /// present when EvalOptions::collect_trace was set; null otherwise.
  const std::shared_ptr<const obs::QueryProfile>& profile() const {
    return profile_;
  }
  void set_profile(std::shared_ptr<const obs::QueryProfile> profile) {
    profile_ = std::move(profile);
  }

  /// Findings of the pre-flight analysis (EvalOptions::analyze_first):
  /// warnings and §3 family notes the query evaluated despite. Errors
  /// never reach a ResultSet — they abort evaluation.
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }
  void set_diagnostics(std::vector<Diagnostic> diagnostics) {
    diagnostics_ = std::move(diagnostics);
  }

  /// OK unless a governed evaluation tripped a resource limit
  /// (kDeadlineExceeded / kResourceExhausted). When set, the rows present
  /// are partial progress — a prefix of the serial answer — and
  /// governor_report() carries the usage diagnostics.
  const Status& governor_status() const { return governor_status_; }
  const exec::GovernorReport& governor_report() const {
    return governor_report_;
  }
  void set_governor(Status status, exec::GovernorReport report) {
    governor_status_ = std::move(status);
    governor_report_ = std::move(report);
  }

  /// The admission-control record of the evaluation (mode, queue wait,
  /// retries). Evaluator::Execute sets it on every result it returns.
  const AdmissionInfo& admission() const { return admission_; }
  void set_admission(AdmissionInfo admission) {
    admission_ = std::move(admission);
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<Oid>> rows_;
  bool truncated_ = false;
  std::shared_ptr<const obs::QueryProfile> profile_;
  std::vector<Diagnostic> diagnostics_;
  Status governor_status_ = Status::OK();
  exec::GovernorReport governor_report_;
  AdmissionInfo admission_;
};

}  // namespace lyric

#endif  // LYRIC_QUERY_RESULT_SET_H_
