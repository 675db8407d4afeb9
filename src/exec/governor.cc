#include "exec/governor.h"

#include <string>

#include "obs/metrics.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace lyric {
namespace exec {

namespace {

thread_local CancellationToken* t_current_token = nullptr;

void CountTrip(LimitKind kind) {
  obs::Registry::Global()
      .GetCounter(std::string("governor.trips.") + LimitKindToString(kind))
      .Increment();
  static obs::Counter& total =
      obs::Registry::Global().GetCounter("governor.trips");
  total.Increment();
}

}  // namespace

const char* LimitKindToString(LimitKind kind) {
  switch (kind) {
    case LimitKind::kNone:
      return "none";
    case LimitKind::kDeadline:
      return "deadline";
    case LimitKind::kMemory:
      return "memory";
    case LimitKind::kPivots:
      return "pivots";
    case LimitKind::kDisjuncts:
      return "disjuncts";
  }
  return "unknown";
}

const GovernorLimits& GovernorLimits::FromEnv() {
  static const GovernorLimits* limits = [] {
    auto* env = new GovernorLimits();
    env->deadline_ms = EnvUint64("LYRIC_DEADLINE_MS");
    env->memory_budget = EnvUint64("LYRIC_MEMORY_BUDGET");
    return env;
  }();
  return *limits;
}

std::string GovernorReport::ToString() const {
  std::string out = "governor: ";
  if (tripped == LimitKind::kNone) {
    out += "ok";
  } else {
    out += "tripped ";
    out += LimitKindToString(tripped);
    if (!site.empty()) {
      out += " at ";
      out += site;
    }
  }
  out += " after ";
  out += std::to_string(elapsed_ms);
  out += "ms (bindings=";
  out += std::to_string(bindings_scanned);
  out += " pivots=";
  out += std::to_string(pivots_used);
  out += " memory=";
  out += std::to_string(memory_used);
  out += "B disjuncts=";
  out += std::to_string(disjuncts_used);
  out += ")";
  return out;
}

CancellationToken::CancellationToken(const GovernorLimits& limits)
    : limits_(limits), start_(std::chrono::steady_clock::now()) {
  if (limits_.deadline_ms.has_value()) {
    deadline_at_ = start_ + std::chrono::milliseconds(*limits_.deadline_ms);
  }
}

void CancellationToken::Trip(LimitKind kind, const char* site) {
  uint8_t expected = static_cast<uint8_t>(LimitKind::kNone);
  if (tripped_.compare_exchange_strong(expected, static_cast<uint8_t>(kind),
                                       std::memory_order_acq_rel)) {
    {
      sync::MutexLock lock(site_mu_);
      trip_site_ = site;
    }
    CountTrip(kind);
  }
}

bool CancellationToken::AccountPivots(uint64_t n, const char* site) {
  uint64_t total = pivots_.fetch_add(n, std::memory_order_relaxed) + n;
  if (limits_.max_pivots.has_value() && total > *limits_.max_pivots) {
    Trip(LimitKind::kPivots, site);
  }
  return stopped();
}

bool CancellationToken::AccountMemory(uint64_t bytes, const char* site) {
  // The fault site lets the fault-injection gate exercise the
  // budget-trip path without constructing a genuinely huge query.
  if (fault::Enabled() && limits_.memory_budget.has_value() &&
      fault::Inject(fault::kSiteAlloc)) {
    Trip(LimitKind::kMemory, site);
    return true;
  }
  uint64_t total = memory_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (limits_.memory_budget.has_value() && total > *limits_.memory_budget) {
    Trip(LimitKind::kMemory, site);
  }
  return stopped();
}

bool CancellationToken::AccountDisjuncts(uint64_t n, const char* site) {
  uint64_t total = disjuncts_.fetch_add(n, std::memory_order_relaxed) + n;
  if (limits_.max_disjuncts.has_value() && total > *limits_.max_disjuncts) {
    Trip(LimitKind::kDisjuncts, site);
  }
  return stopped();
}

void CancellationToken::AccountBinding() {
  bindings_.fetch_add(1, std::memory_order_relaxed);
}

bool CancellationToken::CheckDeadline(const char* site) {
  if (limits_.deadline_ms.has_value() && !stopped() &&
      std::chrono::steady_clock::now() >= deadline_at_) {
    Trip(LimitKind::kDeadline, site);
  }
  return stopped();
}

Status CancellationToken::Check(const char* site) {
  CheckDeadline(site);
  return ToStatus();
}

Status CancellationToken::ToStatus() const {
  LimitKind kind = tripped_kind();
  if (kind == LimitKind::kNone) return Status::OK();
  std::string site;
  {
    sync::MutexLock lock(site_mu_);
    site = trip_site_;
  }
  // Messages stay stable across runs: limit + first site only, no
  // data-dependent progress counters.
  std::string msg = "query exceeded ";
  msg += LimitKindToString(kind);
  msg += " limit (tripped at ";
  msg += site;
  msg += ")";
  if (kind == LimitKind::kDeadline) {
    return Status::DeadlineExceeded(std::move(msg));
  }
  return Status::ResourceExhausted(std::move(msg));
}

std::optional<uint64_t> CancellationToken::LimitFor(LimitKind kind) const {
  switch (kind) {
    case LimitKind::kDeadline:
      return limits_.deadline_ms;
    case LimitKind::kMemory:
      return limits_.memory_budget;
    case LimitKind::kPivots:
      return limits_.max_pivots;
    case LimitKind::kDisjuncts:
      return limits_.max_disjuncts;
    case LimitKind::kNone:
      break;
  }
  return std::nullopt;
}

GovernorReport CancellationToken::Report() const {
  GovernorReport report;
  report.tripped = tripped_kind();
  {
    sync::MutexLock lock(site_mu_);
    report.site = trip_site_;
  }
  report.bindings_scanned = bindings_.load(std::memory_order_relaxed);
  report.pivots_used = pivots_.load(std::memory_order_relaxed);
  report.memory_used = memory_.load(std::memory_order_relaxed);
  report.disjuncts_used = disjuncts_.load(std::memory_order_relaxed);
  report.elapsed_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  return report;
}

GovernorScope::GovernorScope(CancellationToken* token)
    : previous_(t_current_token) {
  t_current_token = token;
}

GovernorScope::~GovernorScope() { t_current_token = previous_; }

CancellationToken* GovernorScope::Current() { return t_current_token; }

bool AccountPivots(uint64_t n, const char* site) {
  CancellationToken* token = GovernorScope::Current();
  if (token == nullptr) return false;
  return token->AccountPivots(n, site);
}

bool AccountKernelMemory(uint64_t bytes, const char* site) {
  CancellationToken* token = GovernorScope::Current();
  if (token == nullptr) return false;
  return token->AccountMemory(bytes, site);
}

bool AccountDisjuncts(uint64_t n, const char* site) {
  CancellationToken* token = GovernorScope::Current();
  if (token == nullptr) return false;
  return token->AccountDisjuncts(n, site);
}

}  // namespace exec
}  // namespace lyric
