#include "exec/governor.h"

#include <string>

#include "obs/metrics.h"
#include "util/deadline.h"
#include "util/fault.h"

namespace lyric {
namespace exec {

namespace {

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
  }
  return "unknown";
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
  out += "B)";
  return out;
}

CancellationToken::CancellationToken(const GovernorLimits& limits)
    : limits_(limits), start_(std::chrono::steady_clock::now()) {
  if (limits_.deadline_ms.has_value()) {
    deadline_at_ = DeadlineAfterMs(start_, *limits_.deadline_ms);
  }
}

void CancellationToken::Trip(LimitKind kind, const char* site) {
  if (stopped()) return;
  tripped_ = kind;
  trip_site_ = site;
  CountTrip(kind);
}

bool CancellationToken::AccountMemory(uint64_t bytes, const char* site) {
  // The fault site lets the fault-injection gate exercise the
  // budget-trip path without constructing a genuinely huge query.
  if (fault::Enabled() && limits_.memory_budget.has_value() &&
      fault::Inject(fault::kSiteAlloc)) {
    Trip(LimitKind::kMemory, site);
    return true;
  }
  memory_ += bytes;
  if (limits_.memory_budget.has_value() && memory_ > *limits_.memory_budget) {
    Trip(LimitKind::kMemory, site);
  }
  return stopped();
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
  if (tripped_ == LimitKind::kNone) return Status::OK();
  // Messages stay stable across runs: limit + first site only, no
  // data-dependent progress counters.
  std::string msg = "query exceeded ";
  msg += LimitKindToString(tripped_);
  msg += " limit (tripped at ";
  msg += trip_site_;
  msg += ")";
  if (tripped_ == LimitKind::kDeadline) {
    return Status::DeadlineExceeded(std::move(msg));
  }
  return Status::ResourceExhausted(std::move(msg));
}

GovernorReport CancellationToken::Report() const {
  GovernorReport report;
  report.tripped = tripped_;
  report.site = trip_site_;
  report.bindings_scanned = bindings_;
  report.pivots_used = pivots_;
  report.memory_used = memory_;
  report.elapsed_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  return report;
}

}  // namespace exec
}  // namespace lyric
