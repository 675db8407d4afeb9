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
//   * A CancellationToken carries the per-query limits — wall-clock
//     deadline, kernel memory budget, simplex pivot cap, DNF disjunct cap
//     — plus the usage counters and the sticky "tripped" record.
//   * The evaluator installs the token as an *ambient* thread-local
//     (GovernorScope) on the query thread, so the constraint kernels
//     observe it without threading a parameter through every call
//     signature.
//   * Kernels check cooperatively: hot loops call the cheap counting
//     hooks (AccountPivots / AccountKernelMemory / AccountDisjuncts,
//     relaxed atomics), and every Result-bearing kernel entry point calls
//     CheckCancellation(site), which converts a trip into the typed
//     Status (kDeadlineExceeded / kResourceExhausted). Once tripped the
//     token stays tripped, so inner loops that cannot return a Status
//     simply stop producing work and the nearest Result checkpoint
//     reports the trip.
//   * A trip never corrupts shared state: the SolverCache only stores
//     verdicts that were computed fully (every store site is behind a
//     checkpoint), and the evaluator converts the trip Status into a
//     partial ResultSet carrying a GovernorReport (bindings scanned,
//     pivots used, which kernel site observed the trip).
//
// With no limits configured nothing is installed and every check is one
// thread_local load — bench_paper_queries' governed variant keeps the
// overhead visible (<5% is the CI budget).

#ifndef LYRIC_EXEC_GOVERNOR_H_
#define LYRIC_EXEC_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>

#include "util/status.h"
#include "util/sync.h"

namespace lyric {
namespace exec {

/// Which limit a governed query tripped.
enum class LimitKind : uint8_t {
  kNone = 0,
  kDeadline,
  kMemory,
  kPivots,
  kDisjuncts,
};

const char* LimitKindToString(LimitKind kind);

/// The per-query resource limits. Unset fields are unlimited.
struct GovernorLimits {
  /// Wall-clock deadline in milliseconds from token creation.
  std::optional<uint64_t> deadline_ms;
  /// Budget, in bytes, for kernel-accounted allocations (simplex tableau
  /// rows, Fourier-Motzkin atom generation, DNF disjunct bodies). This is
  /// an accounting bound on the dominant transient structures, not an
  /// RSS cap.
  std::optional<uint64_t> memory_budget;
  /// Cap on total simplex pivot operations across the query.
  std::optional<uint64_t> max_pivots;
  /// Cap on total DNF disjuncts materialized across the query.
  std::optional<uint64_t> max_disjuncts;

  bool Any() const {
    return deadline_ms.has_value() || memory_budget.has_value() ||
           max_pivots.has_value() || max_disjuncts.has_value();
  }

  /// The process-default limits from the environment, read once:
  /// LYRIC_DEADLINE_MS and LYRIC_MEMORY_BUDGET (bytes). Unset or
  /// unparseable variables leave the field unlimited.
  static const GovernorLimits& FromEnv();
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
  uint64_t disjuncts_used = 0;
  uint64_t elapsed_ms = 0;

  /// "governor: tripped deadline at simplex.is_satisfiable after 12ms
  ///  (bindings=3 pivots=4821 memory=18KB disjuncts=2)".
  std::string ToString() const;
};

/// Shared cancellation state for one governed query. Thread-safe: the
/// accounting hooks are relaxed atomics, Check samples the deadline.
/// Trips are sticky — once a limit is exceeded every subsequent Check
/// returns the same typed Status, so repeat evaluations of the same query
/// report identical codes.
class CancellationToken {
 public:
  explicit CancellationToken(const GovernorLimits& limits);

  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Cheap sticky-trip probe for loops that cannot return a Status.
  bool stopped() const {
    return tripped_.load(std::memory_order_relaxed) !=
           static_cast<uint8_t>(LimitKind::kNone);
  }

  /// Records `n` simplex pivots; returns true when the token is (now)
  /// tripped and the caller should unwind.
  bool AccountPivots(uint64_t n, const char* site);
  /// Records `bytes` of kernel allocation.
  bool AccountMemory(uint64_t bytes, const char* site);
  /// Records `n` materialized DNF disjuncts.
  bool AccountDisjuncts(uint64_t n, const char* site);
  /// Records one candidate binding scanned (evaluator progress).
  void AccountBinding();

  /// Samples the wall clock against the deadline; trips when expired.
  /// Rate-limit externally (the kernels call this every few dozen
  /// iterations, the evaluator once per binding).
  bool CheckDeadline(const char* site);

  /// Full cooperative check: deadline sample + sticky trip. OK when the
  /// token has not tripped; otherwise the typed Status.
  Status Check(const char* site);

  /// The typed Status for the current trip (OK when untripped):
  /// kDeadlineExceeded for deadline trips, kResourceExhausted for
  /// memory/pivot/disjunct trips. Messages are stable — they name the
  /// limit and the first trip site, never data-dependent progress — so
  /// repeat runs report byte-identical statuses.
  Status ToStatus() const;

  LimitKind tripped_kind() const {
    return static_cast<LimitKind>(tripped_.load(std::memory_order_acquire));
  }

  /// Trips the token directly with the given kind and site. Used by the
  /// SolverCache tombstone path: a recorded "too expensive" verdict fails
  /// the query fast by replaying the original trip (same kind, same site,
  /// hence a byte-identical ToStatus message) without re-burning the
  /// budget. Sticky like every other trip.
  void ForceTrip(LimitKind kind, const char* site) { Trip(kind, site); }

  /// The configured cap for `kind`, or nullopt when that limit is unset.
  std::optional<uint64_t> LimitFor(LimitKind kind) const;

  /// Usage snapshot (consistent enough for diagnostics; individual
  /// counters are exact).
  GovernorReport Report() const;

 private:
  /// Records the first trip (later trips keep the original kind/site).
  void Trip(LimitKind kind, const char* site);

  // Written only by the constructor; read-only afterwards.
  GovernorLimits limits_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point deadline_at_;  // Valid if deadline.
  std::atomic<uint64_t> pivots_{0};
  std::atomic<uint64_t> memory_{0};
  std::atomic<uint64_t> disjuncts_{0};
  std::atomic<uint64_t> bindings_{0};
  std::atomic<uint8_t> tripped_{static_cast<uint8_t>(LimitKind::kNone)};
  // Ranked after the cache shard: tombstone hits ForceTrip under the
  // shard lock (solver_cache.cc LookupTombstone).
  mutable sync::Mutex site_mu_{sync::LockRank::kGovernor, "governor_site"};
  std::string trip_site_ LYRIC_GUARDED_BY(site_mu_);
};

/// Installs a token as the current thread's ambient governor for the
/// scope's lifetime (restores the previous one on exit, so scopes nest).
/// The evaluator opens one on the query thread; kernels read it through
/// Current().
class GovernorScope {
 public:
  explicit GovernorScope(CancellationToken* token);
  ~GovernorScope();

  GovernorScope(const GovernorScope&) = delete;
  GovernorScope& operator=(const GovernorScope&) = delete;

  /// The token governing the current thread, or nullptr (ungoverned).
  static CancellationToken* Current();

 private:
  CancellationToken* previous_;
};

// -- Kernel-side hooks (free functions so call sites stay one line) --------

/// Returns the ambient token's trip Status (sampling the deadline), or OK
/// when ungoverned/untripped. Every Result-bearing kernel entry point
/// calls this on entry and before publishing a computed result.
inline Status CheckCancellation(const char* site) {
  CancellationToken* token = GovernorScope::Current();
  if (token == nullptr) return Status::OK();
  return token->Check(site);
}

/// True when the ambient token has tripped — for inner loops that cannot
/// return a Status and just stop producing work.
inline bool CancellationRequested() {
  CancellationToken* token = GovernorScope::Current();
  return token != nullptr && token->stopped();
}

/// Accounting hooks; no-ops when ungoverned. Each returns true when the
/// caller should unwind (the token is tripped).
bool AccountPivots(uint64_t n, const char* site);
bool AccountKernelMemory(uint64_t bytes, const char* site);
bool AccountDisjuncts(uint64_t n, const char* site);

}  // namespace exec
}  // namespace lyric

#endif  // LYRIC_EXEC_GOVERNOR_H_
