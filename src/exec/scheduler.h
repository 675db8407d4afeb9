// QueryScheduler: process-wide admission control above the QueryGovernor.
//
// The per-query CancellationToken (governor.h) bounds ONE query; nothing
// stops a process from oversubscribing itself when many governed queries
// land at once — N queries each within its own memory budget can still
// sum past what the machine has, and N deadline-bearing queries stacked
// behind busy workers all expire together. The scheduler closes that gap
// with a cross-query ledger and a small admission state machine
// (docs/ROBUSTNESS.md):
//
//   admit    there is a free concurrency slot and the query's declared
//            memory budget fits the ledger -> run immediately.
//   queue    no slot (or no ledger headroom): park the arrival in a
//            deadline-aware priority queue — earliest declared deadline
//            first, FIFO (arrival order) among equal deadlines.
//   shed     the queue is full, the queue timeout elapses, or the query's
//            own deadline expires while it waits: fail fast with a typed
//            kUnavailable Status carrying a computed retry-after hint
//            (never a half-run query — a shed query did zero work).
//
// Shedding is deliberately typed: kUnavailable is the only transient
// status in the system, so RetryPolicy (below) can retry shed queries and
// injected-fault failures while never retrying kDeadlineExceeded partials.
//
// With no limits configured (the default) Admit is a single mutex
// acquisition that increments the ledger — no queueing — so unscheduled
// workloads keep their exact behavior.

#ifndef LYRIC_EXEC_SCHEDULER_H_
#define LYRIC_EXEC_SCHEDULER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <string_view>

#include "util/result.h"
#include "util/status.h"
#include "util/sync.h"

namespace lyric {
namespace exec {

/// Process-wide admission limits. Unset fields are unlimited.
struct SchedulerLimits {
  /// Cap on concurrently executing scheduled queries. Unset = unlimited
  /// (admission never queues or sheds on concurrency).
  std::optional<uint64_t> max_concurrent;
  /// Cap on queries waiting for a slot; arrivals beyond it are shed.
  /// Unset defaults to kDefaultQueueCapacity when a cap is in force.
  std::optional<uint64_t> queue_capacity;
  /// Upper bound, in milliseconds, a query may wait in the queue before
  /// being shed. Unset = wait until granted (or until the query's own
  /// declared deadline expires). Values too large for the clock saturate
  /// to "never", as does a declared deadline.
  std::optional<uint64_t> queue_timeout_ms;
  /// Cap, in bytes, on the sum of admitted queries' declared memory
  /// budgets (the cross-query ledger). Unset = memory never gates
  /// admission.
  std::optional<uint64_t> max_total_memory;

  static constexpr uint64_t kDefaultQueueCapacity = 16;

  bool Any() const {
    return max_concurrent.has_value() || queue_capacity.has_value() ||
           queue_timeout_ms.has_value() || max_total_memory.has_value();
  }

  /// The process-default limits from the environment, read once:
  /// LYRIC_MAX_CONCURRENT, LYRIC_QUEUE_CAPACITY, LYRIC_QUEUE_TIMEOUT_MS,
  /// LYRIC_MAX_TOTAL_MEMORY (bytes). Unset or unparseable variables leave
  /// the field unlimited.
  static const SchedulerLimits& FromEnv();
};

/// What an arriving query declares about itself; the scheduler orders the
/// wait queue by deadline and gates admission on the memory budget.
struct AdmissionRequest {
  /// The query's declared wall-clock deadline (EvalOptions::deadline_ms).
  /// A queued query is shed when this much time elapses before a grant.
  std::optional<uint64_t> deadline_ms;
  /// The query's declared memory budget in bytes
  /// (EvalOptions::memory_budget); 0 when undeclared. Reserved in the
  /// ledger from grant to ticket release.
  uint64_t memory_budget = 0;
};

/// Point-in-time scheduler counters (shell `.admit` / `.stats`).
struct SchedulerStats {
  uint64_t admitted = 0;   ///< Grants (direct + from the queue), lifetime.
  uint64_t queued = 0;     ///< Arrivals that had to wait, lifetime.
  uint64_t shed = 0;       ///< Arrivals rejected with kUnavailable.
  uint64_t expired = 0;    ///< Sheds caused by deadline/timeout in queue.
  uint64_t active = 0;     ///< Currently executing scheduled queries.
  uint64_t waiting = 0;    ///< Currently queued arrivals.
  uint64_t peak_active = 0;
  uint64_t reserved_memory = 0;  ///< Ledger: sum of admitted budgets.

  std::string ToString() const;
};

class QueryScheduler;

/// RAII admission slot. Holding an admitted ticket keeps one concurrency
/// slot and the declared memory budget reserved in the ledger; the
/// destructor (or Release) returns both and wakes queued waiters.
class AdmissionTicket {
 public:
  AdmissionTicket(AdmissionTicket&& other) noexcept { *this = std::move(other); }
  AdmissionTicket& operator=(AdmissionTicket&& other) noexcept;
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;
  ~AdmissionTicket() { Release(); }

  /// True when this ticket holds a slot.
  bool admitted() const { return scheduler_ != nullptr; }
  /// True when the grant came off the wait queue rather than directly.
  bool queued() const { return queued_; }
  /// Time this admission spent parked in the wait queue (0 for a direct
  /// grant). Feeds the per-query log record.
  uint64_t queue_wait_ns() const { return queue_wait_ns_; }

  /// Returns the slot and ledger reservation early; idempotent.
  void Release();

 private:
  friend class QueryScheduler;
  AdmissionTicket(QueryScheduler* scheduler, uint64_t memory)
      : scheduler_(scheduler), memory_(memory) {}

  QueryScheduler* scheduler_ = nullptr;
  uint64_t memory_ = 0;
  bool queued_ = false;
  uint64_t queue_wait_ns_ = 0;
  std::chrono::steady_clock::time_point start_{};
};

/// The process-wide admission controller. Thread-safe; one Global()
/// instance serves the whole process, and tests construct private
/// instances (EvalOptions::scheduler).
class QueryScheduler {
 public:
  explicit QueryScheduler(const SchedulerLimits& limits = SchedulerLimits())
      : limits_(limits) {}
  QueryScheduler(const QueryScheduler&) = delete;
  QueryScheduler& operator=(const QueryScheduler&) = delete;

  /// The process-wide instance, initialized from SchedulerLimits::FromEnv.
  static QueryScheduler& Global();

  /// Replaces the limits; applies to future admissions (queries already
  /// running or queued keep the terms they arrived under).
  void Configure(const SchedulerLimits& limits) LYRIC_EXCLUDES(mu_);
  SchedulerLimits limits() const LYRIC_EXCLUDES(mu_);

  /// Runs the admission state machine for one arriving query. Blocks
  /// while queued. Returns an admitted ticket, or:
  ///   * kUnavailable (+ retry-after hint) when shed — queue full, queue
  ///     timeout, declared deadline expired while queued, or the
  ///     `scheduler` fault site forced a shed;
  ///   * kResourceExhausted when the declared memory budget exceeds the
  ///     whole ledger and could never be admitted (not retryable).
  Result<AdmissionTicket> Admit(const AdmissionRequest& request)
      LYRIC_EXCLUDES(mu_);

  SchedulerStats stats() const LYRIC_EXCLUDES(mu_);

  /// Test helper: blocks until at least `count` arrivals are waiting in
  /// the queue, or `timeout_ms` elapses. Lets tests stage deterministic
  /// arrival orders. Returns whether the count was reached.
  bool WaitForWaiters(uint64_t count, uint64_t timeout_ms) const
      LYRIC_EXCLUDES(mu_);

 private:
  friend class AdmissionTicket;

  struct Waiter {
    uint64_t seq = 0;  ///< Arrival order; FIFO tie-break among deadlines.
    std::chrono::steady_clock::time_point deadline_at;  ///< Queue priority.
    bool has_deadline = false;
    uint64_t memory = 0;
    bool granted = false;
    /// Signalled once, by the grant: a freed lane wakes only its waiter.
    sync::CondVar cv;
  };

  void Release(uint64_t memory, std::chrono::steady_clock::time_point start)
      LYRIC_EXCLUDES(mu_);
  /// Grants queued waiters in priority order while slots and ledger
  /// headroom last.
  void GrantWaitersLocked() LYRIC_REQUIRES(mu_);
  /// Builds the typed shed status with the retry-after hint.
  Status ShedLocked(const char* why) LYRIC_REQUIRES(mu_);
  uint64_t RetryAfterHintLocked() const LYRIC_REQUIRES(mu_);
  /// Mirrors live state into the "scheduler.*" gauges (Global() instance
  /// only, so per-test schedulers don't clobber the process numbers).
  /// The gauge handles are function-local statics: the registry lock
  /// (rank kObsRegistry) nests legally under mu_ (rank kScheduler) on
  /// first resolution, and subsequent Sets are plain atomic stores.
  void PublishGaugesLocked() const LYRIC_REQUIRES(mu_);

  mutable sync::Mutex mu_{sync::LockRank::kScheduler, "scheduler"};
  SchedulerLimits limits_ LYRIC_GUARDED_BY(mu_);
  std::list<Waiter> waiters_ LYRIC_GUARDED_BY(mu_);
  uint64_t next_seq_ LYRIC_GUARDED_BY(mu_) = 0;
  uint64_t active_ LYRIC_GUARDED_BY(mu_) = 0;
  uint64_t reserved_memory_ LYRIC_GUARDED_BY(mu_) = 0;
  // Lifetime counters (mirrored into the obs registry as scheduler.*).
  uint64_t admitted_ LYRIC_GUARDED_BY(mu_) = 0;
  uint64_t queued_ LYRIC_GUARDED_BY(mu_) = 0;
  uint64_t shed_ LYRIC_GUARDED_BY(mu_) = 0;
  uint64_t expired_ LYRIC_GUARDED_BY(mu_) = 0;
  uint64_t peak_active_ LYRIC_GUARDED_BY(mu_) = 0;
  /// EWMA of completed-query durations in ms; feeds the retry-after hint.
  double avg_duration_ms_ LYRIC_GUARDED_BY(mu_) = 0;
  bool has_avg_ LYRIC_GUARDED_BY(mu_) = false;
};

// -- Retry policy ----------------------------------------------------------

/// Deterministic capped-exponential-backoff retry for transient failures.
///
/// Transient means kUnavailable — the one code the system reserves for
/// "nothing happened, try again": admission sheds and injected transport
/// faults. kDeadlineExceeded and kResourceExhausted are NEVER retried:
/// a deadline partial already consumed its budget and a bigger answer
/// won't appear by asking again.
///
/// Backoff for retry attempt k (0-based) is base*2^k capped at max, with
/// deterministic seeded jitter in [cap/2, cap] (splitmix64 over
/// (seed, k)), raised to any retry-after hint the Status carries.
struct RetryPolicy {
  uint32_t max_retries = 0;  ///< 0 = never retry (the default).
  uint64_t base_backoff_ms = 10;
  uint64_t max_backoff_ms = 1000;
  uint64_t seed = 0;

  /// Parses "retries[:base_ms[:seed]]", each field a decimal accepted by
  /// ParseUint64 and retries at most 2^32 - 1; nullopt when malformed. A
  /// base of 0 keeps the default.
  static std::optional<RetryPolicy> Parse(std::string_view spec);

  /// The process default from LYRIC_RETRY (see Parse), read once. Unset
  /// or malformed leaves max_retries at 0 (retry disabled).
  static const RetryPolicy& FromEnv();

  /// Whether `failed` should be retried after `attempt` completed retries.
  bool ShouldRetry(const Status& failed, uint32_t attempt) const;
  /// The deterministic backoff before retry `attempt`; honors `failed`'s
  /// retry-after hint as a lower bound.
  uint64_t BackoffMs(uint32_t attempt, const Status& failed) const;
};

/// Runs `op` under `policy`: on a transient failure sleeps the backoff
/// and retries, up to policy.max_retries times. Returns the first
/// success or the last failure. Increments obs counter
/// "scheduler.retries" per retry. Used by the shell (.load/.save) and
/// lyric_check; the evaluator has its own inline loop so it can preserve
/// the Result<ResultSet> payload.
Status RunWithRetry(const RetryPolicy& policy, const std::function<Status()>& op);

}  // namespace exec
}  // namespace lyric

#endif  // LYRIC_EXEC_SCHEDULER_H_
