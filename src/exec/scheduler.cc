#include "exec/scheduler.h"

#include <algorithm>
#include <limits>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace lyric {
namespace exec {

namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Fallback completed-query duration before any query has finished.
constexpr double kDefaultAvgDurationMs = 50.0;
constexpr uint64_t kMaxRetryAfterMs = 60'000;

}  // namespace

std::string SchedulerStats::ToString() const {
  std::string out = "scheduler: active=";
  out += std::to_string(active);
  out += "/peak=";
  out += std::to_string(peak_active);
  out += " waiting=";
  out += std::to_string(waiting);
  out += " reserved=";
  out += std::to_string(reserved_memory);
  out += "B | admitted=";
  out += std::to_string(admitted);
  out += " queued=";
  out += std::to_string(queued);
  out += " shed=";
  out += std::to_string(shed);
  out += " (expired=";
  out += std::to_string(expired);
  out += ")";
  return out;
}

AdmissionTicket& AdmissionTicket::operator=(AdmissionTicket&& other) noexcept {
  if (this != &other) {
    Release();
    scheduler_ = other.scheduler_;
    memory_ = other.memory_;
    queued_ = other.queued_;
    queue_wait_ns_ = other.queue_wait_ns_;
    start_ = other.start_;
    other.scheduler_ = nullptr;
  }
  return *this;
}

void AdmissionTicket::Release() {
  if (scheduler_ != nullptr) {
    scheduler_->Release(memory_, start_);
    scheduler_ = nullptr;
  }
}

QueryScheduler& QueryScheduler::Global() {
  static QueryScheduler* instance = new QueryScheduler();
  return *instance;
}

void QueryScheduler::Configure(const SchedulerLimits& limits) {
  sync::MutexLock lock(mu_);
  limits_ = limits;
  // Relaxed limits may unblock queued waiters immediately.
  GrantWaitersLocked();
}

SchedulerLimits QueryScheduler::limits() const {
  sync::MutexLock lock(mu_);
  return limits_;
}

void QueryScheduler::PublishGaugesLocked() const {
  static const QueryScheduler* global = &Global();
  if (this != global) return;
  obs::Registry& reg = obs::Registry::Global();
  static obs::Gauge& active_gauge = reg.GetGauge("scheduler.active");
  static obs::Gauge& waiting_gauge = reg.GetGauge("scheduler.waiting");
  static obs::Gauge& reserved_gauge =
      reg.GetGauge("scheduler.reserved_memory_bytes");
  active_gauge.Set(static_cast<int64_t>(active_));
  waiting_gauge.Set(static_cast<int64_t>(waiting_));
  reserved_gauge.Set(static_cast<int64_t>(reserved_memory_));
}

uint64_t QueryScheduler::RetryAfterHintLocked() const {
  const double avg = has_avg_ ? avg_duration_ms_ : kDefaultAvgDurationMs;
  const uint64_t lanes = std::max<uint64_t>(limits_.max_concurrent.value_or(1), 1);
  const double hint = (static_cast<double>(waiting_) + 1.0) * avg /
                      static_cast<double>(lanes);
  return std::clamp<uint64_t>(static_cast<uint64_t>(hint), 1, kMaxRetryAfterMs);
}

Status QueryScheduler::ShedLocked(const char* why) {
  ++shed_;
  LYRIC_OBS_COUNT("scheduler.shed");
  std::string msg = "admission: ";
  msg += why;
  return Status::Unavailable(std::move(msg))
      .WithRetryAfter(RetryAfterHintLocked());
}

void QueryScheduler::GrantWaitersLocked() {
  for (;;) {
    if (limits_.max_concurrent.has_value() &&
        active_ >= *limits_.max_concurrent) {
      break;
    }
    // Best ungranted waiter: earliest declared deadline first, FIFO
    // (arrival seq) among equal deadlines; no-deadline waiters sort last.
    Waiter* best = nullptr;
    for (Waiter& w : waiters_) {
      if (w.granted) continue;
      if (best == nullptr) {
        best = &w;
        continue;
      }
      const bool earlier =
          w.has_deadline &&
          (!best->has_deadline || w.deadline_at < best->deadline_at ||
           (w.deadline_at == best->deadline_at && w.seq < best->seq));
      const bool fifo = !w.has_deadline && !best->has_deadline &&
                        w.seq < best->seq;
      if (earlier || fifo) best = &w;
    }
    if (best == nullptr) break;
    // Strict priority order: if the best waiter's budget does not fit the
    // ledger, later (cheaper) waiters do NOT jump the queue.
    if (limits_.max_total_memory.has_value() &&
        reserved_memory_ + best->memory > *limits_.max_total_memory) {
      break;
    }
    best->granted = true;
    --waiting_;
    ++active_;
    peak_active_ = std::max(peak_active_, active_);
    reserved_memory_ += best->memory;
    ++admitted_;
    LYRIC_OBS_COUNT("scheduler.admitted");
    // Wake exactly the granted waiter. Under mu_, so it cannot erase
    // itself before we unlock.
    best->cv.NotifyOne();
  }
}

Result<AdmissionTicket> QueryScheduler::Admit(const AdmissionRequest& request) {
  const auto now = std::chrono::steady_clock::now();
  sync::MutexLock lock(mu_);

  // The fault site simulates a full queue regardless of actual load, so
  // the shed + retry path is testable without generating real pressure.
  const bool forced_shed =
      fault::Enabled() && fault::Inject(fault::kSiteScheduler);

  if (limits_.max_total_memory.has_value() &&
      request.memory_budget > *limits_.max_total_memory) {
    // Could never be admitted no matter how long it waits — a permanent,
    // non-retryable rejection (deliberately NOT kUnavailable).
    return Status::ResourceExhausted(
        "admission: declared memory budget exceeds the process ledger");
  }

  const bool slot_free = !limits_.max_concurrent.has_value() ||
                         active_ < *limits_.max_concurrent;
  const bool memory_fits =
      !limits_.max_total_memory.has_value() ||
      reserved_memory_ + request.memory_budget <= *limits_.max_total_memory;

  if (!forced_shed && slot_free && memory_fits && waiters_.empty()) {
    ++active_;
    peak_active_ = std::max(peak_active_, active_);
    reserved_memory_ += request.memory_budget;
    ++admitted_;
    LYRIC_OBS_COUNT("scheduler.admitted");
    // A direct grant waited zero time; recording it keeps the queue-wait
    // percentiles honest (p50 over all admissions, not just queued ones).
    LYRIC_OBS_RECORD("scheduler.queue_wait", 0);
    PublishGaugesLocked();
    AdmissionTicket ticket(this, request.memory_budget);
    ticket.start_ = now;
    return ticket;
  }

  // No slot (or arrivals already queued): queue or shed.
  const uint64_t queue_cap = limits_.queue_capacity.value_or(
      SchedulerLimits::kDefaultQueueCapacity);
  if (forced_shed) return ShedLocked("injected fault: queue full");
  if (waiting_ >= queue_cap) return ShedLocked("queue full");

  waiters_.emplace_back();
  auto it = std::prev(waiters_.end());
  it->seq = next_seq_++;
  it->memory = request.memory_budget;
  if (request.deadline_ms.has_value()) {
    it->has_deadline = true;
    it->deadline_at = DeadlineAfterMs(now, *request.deadline_ms);
  }
  ++waiting_;
  ++queued_;
  LYRIC_OBS_COUNT("scheduler.queued");
  PublishGaugesLocked();

  // The wait bound: the query's own declared deadline and/or the queue
  // timeout, whichever comes first. Neither -> wait until granted.
  std::optional<std::chrono::steady_clock::time_point> expires_at;
  if (it->has_deadline) expires_at = it->deadline_at;
  if (limits_.queue_timeout_ms.has_value()) {
    auto timeout_at = DeadlineAfterMs(now, *limits_.queue_timeout_ms);
    if (!expires_at.has_value() || timeout_at < *expires_at) {
      expires_at = timeout_at;
    }
  }

  {
    obs::Span span("admission.queue_wait");
    // A freshly queued arrival may be immediately grantable (e.g. the
    // direct path was skipped only because older waiters exist).
    GrantWaitersLocked();
    while (!it->granted) {
      if (expires_at.has_value()) {
        if (it->cv.WaitUntil(mu_, *expires_at) && !it->granted) {
          const bool own_deadline =
              it->has_deadline &&
              std::chrono::steady_clock::now() >= it->deadline_at;
          waiters_.erase(it);
          --waiting_;
          ++expired_;
          LYRIC_OBS_COUNT("scheduler.expired");
          PublishGaugesLocked();
          return ShedLocked(own_deadline
                                ? "declared deadline expired while queued"
                                : "queue wait timed out");
        }
      } else {
        it->cv.Wait(mu_);
      }
    }
  }

  AdmissionTicket ticket(this, it->memory);
  ticket.queued_ = true;
  ticket.start_ = now;
  ticket.queue_wait_ns_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - now)
          .count());
  LYRIC_OBS_RECORD("scheduler.queue_wait", ticket.queue_wait_ns_);
  waiters_.erase(it);
  PublishGaugesLocked();
  return ticket;
}

void QueryScheduler::Release(uint64_t memory,
                             std::chrono::steady_clock::time_point start) {
  sync::MutexLock lock(mu_);
  if (active_ > 0) --active_;
  reserved_memory_ -= std::min(reserved_memory_, memory);
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  // EWMA of completed-query durations drives the retry-after hint.
  avg_duration_ms_ =
      has_avg_ ? 0.8 * avg_duration_ms_ + 0.2 * elapsed_ms : elapsed_ms;
  has_avg_ = true;
  GrantWaitersLocked();
  PublishGaugesLocked();
}

SchedulerStats QueryScheduler::stats() const {
  sync::MutexLock lock(mu_);
  SchedulerStats out;
  out.admitted = admitted_;
  out.queued = queued_;
  out.shed = shed_;
  out.expired = expired_;
  out.active = active_;
  out.waiting = waiting_;
  out.peak_active = peak_active_;
  out.reserved_memory = reserved_memory_;
  return out;
}

bool QueryScheduler::WaitForWaiters(uint64_t count, uint64_t timeout_ms) const {
  const auto give_up =
      DeadlineAfterMs(std::chrono::steady_clock::now(), timeout_ms);
  for (;;) {
    {
      sync::MutexLock lock(mu_);
      if (waiting_ >= count) return true;
    }
    if (std::chrono::steady_clock::now() >= give_up) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// -- Retry policy ----------------------------------------------------------

std::optional<RetryPolicy> RetryPolicy::Parse(std::string_view spec) {
  // retries[:base_ms[:seed]]
  std::vector<uint64_t> fields;
  for (;;) {
    const size_t colon = spec.find(':');
    const std::optional<uint64_t> field = ParseUint64(spec.substr(0, colon));
    if (!field.has_value() || fields.size() == 3) return std::nullopt;
    fields.push_back(*field);
    if (colon == std::string_view::npos) break;
    spec.remove_prefix(colon + 1);
  }
  if (fields[0] > std::numeric_limits<uint32_t>::max()) return std::nullopt;
  RetryPolicy policy;
  policy.max_retries = static_cast<uint32_t>(fields[0]);
  if (fields.size() > 1 && fields[1] > 0) policy.base_backoff_ms = fields[1];
  if (fields.size() > 2) policy.seed = fields[2];
  return policy;
}

bool RetryPolicy::ShouldRetry(const Status& failed, uint32_t attempt) const {
  if (attempt >= max_retries) return false;
  // Transient == kUnavailable, by construction: admission sheds and
  // injected transport faults carry it; deadline/budget partials never do.
  return failed.IsUnavailable();
}

uint64_t RetryPolicy::BackoffMs(uint32_t attempt, const Status& failed) const {
  uint64_t cap = base_backoff_ms;
  for (uint32_t i = 0; i < attempt && cap < max_backoff_ms; ++i) cap *= 2;
  cap = std::min(cap, max_backoff_ms);
  // Deterministic seeded jitter in [cap/2, cap].
  const uint64_t jitter =
      SplitMix64(seed * 0x2545f4914f6cdd1dull + attempt) % (cap / 2 + 1);
  uint64_t backoff = cap - cap / 2 + jitter;
  backoff = std::max<uint64_t>(backoff, failed.retry_after_ms());
  return std::max<uint64_t>(backoff, 1);
}

bool RetryPolicy::WaitToRetry(const Status& failed, uint32_t attempt) const {
  if (!ShouldRetry(failed, attempt)) return false;
  LYRIC_OBS_COUNT("scheduler.retries");
  std::this_thread::sleep_for(
      std::chrono::milliseconds(BackoffMs(attempt, failed)));
  return true;
}

}  // namespace exec
}  // namespace lyric
