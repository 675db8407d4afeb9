// QueryGovernor: per-query resource limits with cooperative cancellation.
//
// The §3 fragment design promises polynomial cost only inside the
// tractable constraint families; outside them (and on adversarial
// instances inside them) quantifier elimination and DNF expansion blow up
// — the failure mode the alibi-query case study (PAPERS.md) documents for
// real constraint-database workloads. A production engine must bound that
// work and degrade gracefully instead of hanging the server's exec
// threads or aborting on std::bad_alloc.
//
// The model (docs/ROBUSTNESS.md):
//
//   * A CancellationToken carries the two per-query limits — wall-clock
//     deadline and kernel memory budget — plus the usage counters and the
//     sticky "tripped" record.
//   * The evaluating thread owns the token: the evaluator creates it on
//     its own stack and attaches it to the query's ambient QueryContext
//     (obs/query_context.h), so the constraint kernels observe it without
//     threading a parameter through every call signature. No other
//     thread ever sees it, so its counters are plain fields.
//   * Kernels check cooperatively: each blow-up (a simplex tableau, a
//     Fourier-Motzkin step, a disjunction product or disequality split)
//     charges AccountKernelMemory before allocating and gives up at once
//     on a trip, hot loops sample CheckDeadline, and every Result-bearing
//     kernel entry point calls
//     CheckCancellation(site), which converts a trip into the typed
//     Status (kDeadlineExceeded / kResourceExhausted). Once tripped the
//     token stays tripped, so inner loops that cannot return a Status
//     simply stop producing work and the nearest Result checkpoint
//     reports the trip.
//   * A trip never corrupts shared state: the SolverCache only stores
//     verdicts that were computed fully (every store site is behind a
//     checkpoint), and the evaluator converts the trip Status into a
//     partial ResultSet carrying a GovernorReport (bindings scanned,
//     pivots used, memory charged, which kernel site observed the trip).
//     A trip stores nothing, so a repeated governed query spends its
//     budget again; the verdicts it completed before tripping stay
//     cached, and a repeat may get further and trip at a later site.
//
// With no limits configured no token is attached and every check is one
// thread-local load, a null test and one pointer load —
// bench_paper_queries' governed variant keeps the overhead visible (<5%
// is the CI budget).

#ifndef LYRIC_EXEC_GOVERNOR_H_
#define LYRIC_EXEC_GOVERNOR_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "obs/query_context.h"
#include "util/status.h"

namespace lyric {
namespace exec {

/// Which limit a governed query tripped.
enum class LimitKind : uint8_t {
  kNone = 0,
  kDeadline,
  kMemory,
};

const char* LimitKindToString(LimitKind kind);

/// The per-query resource limits. Unset fields are unlimited.
struct GovernorLimits {
  /// Wall-clock deadline in milliseconds from token creation. Values too
  /// large for the clock saturate to "never".
  std::optional<uint64_t> deadline_ms;
  /// Budget, in bytes, for kernel-accounted allocations (simplex
  /// tableaux, Fourier-Motzkin atom generation, the atoms of disjunction
  /// products), charged before each is built. This is an accounting bound
  /// on the dominant transient structures, not an RSS cap.
  std::optional<uint64_t> memory_budget;

  bool Any() const {
    return deadline_ms.has_value() || memory_budget.has_value();
  }
};

/// Partial-progress diagnostics attached to a governed query's ResultSet
/// when a limit trips (and available from the token at any time).
struct GovernorReport {
  LimitKind tripped = LimitKind::kNone;
  /// The kernel check site that first observed the trip, e.g.
  /// "simplex.is_satisfiable" (empty when untripped).
  std::string site;
  uint64_t bindings_scanned = 0;
  uint64_t pivots_used = 0;
  uint64_t memory_used = 0;
  uint64_t elapsed_ms = 0;

  /// "governor: tripped deadline at simplex.is_satisfiable after 12ms
  ///  (bindings=3 pivots=4821 memory=18432B)".
  std::string ToString() const;
};

/// Cancellation state for one governed query, owned by the thread that
/// evaluates it (not thread-safe). Trips are sticky — once a limit is
/// exceeded every subsequent Check returns the same typed Status, so
/// repeat evaluations of the same query report identical codes.
class CancellationToken {
 public:
  explicit CancellationToken(const GovernorLimits& limits);

  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Cheap sticky-trip probe for loops that cannot return a Status.
  bool stopped() const { return tripped_ != LimitKind::kNone; }

  /// Records `n` simplex pivots for the report; returns true when the
  /// token is tripped and the caller should unwind.
  bool AccountPivots(uint64_t n) {
    pivots_ += n;
    return stopped();
  }
  /// Records `bytes` of kernel allocation; returns true when the token is
  /// (now) tripped. `site`, like every site below, is a string literal:
  /// the first trip keeps the pointer.
  bool AccountMemory(uint64_t bytes, const char* site);
  /// Records one candidate binding scanned (evaluator progress).
  void AccountBinding() { ++bindings_; }

  /// Samples the wall clock against the deadline; trips when expired.
  /// Rate-limit externally (the kernels call this every few dozen
  /// iterations, the evaluator once per binding).
  bool CheckDeadline(const char* site);

  /// Full cooperative check: deadline sample + sticky trip. OK when the
  /// token has not tripped; otherwise the typed Status.
  Status Check(const char* site);

  /// The typed Status for the current trip (OK when untripped):
  /// kDeadlineExceeded for deadline trips, kResourceExhausted for memory
  /// trips. Messages are stable — they name the limit and the first trip
  /// site, never data-dependent progress — so repeat runs report
  /// byte-identical statuses.
  Status ToStatus() const;

  LimitKind tripped_kind() const { return tripped_; }

  /// Usage snapshot for the partial-result diagnostics.
  GovernorReport Report() const;

 private:
  /// Records the first trip (later trips keep the original kind/site).
  void Trip(LimitKind kind, const char* site);

  GovernorLimits limits_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point deadline_at_;  // Valid if deadline.
  uint64_t pivots_ = 0;
  uint64_t memory_ = 0;
  uint64_t bindings_ = 0;
  LimitKind tripped_ = LimitKind::kNone;
  const char* trip_site_ = "";
};

// -- Kernel-side hooks (free functions so call sites stay one line) --------

/// The token governing the current thread's query, or nullptr (no query
/// context installed, or the query is ungoverned).
inline CancellationToken* CurrentToken() {
  obs::QueryContext* context = obs::QueryContext::Current();
  return context == nullptr ? nullptr : context->token;
}

/// Returns the ambient token's trip Status (sampling the deadline), or OK
/// when ungoverned/untripped. Every Result-bearing kernel entry point
/// calls this on entry and before publishing a computed result.
inline Status CheckCancellation(const char* site) {
  CancellationToken* token = CurrentToken();
  if (token == nullptr) return Status::OK();
  return token->Check(site);
}

/// True when the ambient token has tripped — for inner loops that cannot
/// return a Status and just stop producing work.
inline bool CancellationRequested() {
  CancellationToken* token = CurrentToken();
  return token != nullptr && token->stopped();
}

/// Hooks for loops that cannot return a Status; no-ops when ungoverned.
/// Each returns true when the caller should unwind (the token is tripped).
inline bool AccountPivots(uint64_t n) {
  CancellationToken* token = CurrentToken();
  return token != nullptr && token->AccountPivots(n);
}
/// Charges `bytes` before the caller allocates them.
inline bool AccountKernelMemory(uint64_t bytes, const char* site) {
  CancellationToken* token = CurrentToken();
  return token != nullptr && token->AccountMemory(bytes, site);
}
/// Samples the wall clock against the deadline; rate-limit it.
inline bool CheckDeadline(const char* site) {
  CancellationToken* token = CurrentToken();
  return token != nullptr && token->CheckDeadline(site);
}

}  // namespace exec
}  // namespace lyric

#endif  // LYRIC_EXEC_GOVERNOR_H_
