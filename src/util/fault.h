// Deterministic fault injection for robustness testing.
//
// Production code marks recoverable failure points with fault::Inject:
//
//   if (fault::Inject(fault::kSite_SolverCache)) return std::nullopt;
//
// In normal operation every call is a single relaxed atomic load (the
// injector is disabled) — the sites cost nothing on hot paths. Tests arm
// sites with Configure, and a binary's main (so each ctest fault gate)
// from the LYRIC_FAULT environment variable through Config::Apply:
//
//   LYRIC_FAULT=<site>:<prob>[:<seed>][,<site>:<prob>[:<seed>]...]
//   LYRIC_FAULT=solver_cache:0.25:42,serializer:1.0
//
// Decisions are deterministic given (site, seed, call index): each site
// keeps an atomic call counter and hashes (seed, index) through
// splitmix64, so a run with one thread replays identically and a
// multi-threaded run injects the same *set* of decisions regardless of
// interleaving. Injections are counted in the obs metrics registry as
// "fault.injected.<site>".
//
// Sites (see docs/ROBUSTNESS.md for the failure each one simulates):
//   solver_cache  lookups miss / stores drop (recompute paths)
//   serializer    load/save fail with an injected Status
//   alloc         kernel memory accounting trips the governor budget
//   shell         lyric_shell statement loop throws (exception hardening)
//   trace         a trace span fails to open and is dropped (observability
//                 loss only — query results unaffected)
//   scheduler     admission control sheds the arrival as if the wait queue
//                 were full (typed kUnavailable + retry-after hint)
//   net           lyric_serverd transport: accept/read/write calls fail
//                 with kUnavailable; the server drops the connection (the
//                 session is reaped, nothing leaks) and the client
//                 reconnects under its RetryPolicy
//   storage       paged-store I/O: page reads/writes, WAL appends and
//                 fsyncs fail with kUnavailable. Reads are plain typed
//                 errors; a failed commit poisons the store (fail-stop:
//                 further writes return typed errors) and reopening
//                 recovers exactly the last durably committed state

#ifndef LYRIC_UTIL_FAULT_H_
#define LYRIC_UTIL_FAULT_H_

#include <string>

namespace lyric {
namespace fault {

/// Canonical site names (shared by production sites and tests).
inline constexpr const char* kSiteSolverCache = "solver_cache";
inline constexpr const char* kSiteSerializer = "serializer";
inline constexpr const char* kSiteAlloc = "alloc";
inline constexpr const char* kSiteShell = "shell";
inline constexpr const char* kSiteTrace = "trace";
inline constexpr const char* kSiteScheduler = "scheduler";
inline constexpr const char* kSiteNet = "net";
inline constexpr const char* kSiteStorage = "storage";

/// True when any site is armed (cheap: one relaxed atomic load). Callers
/// on hot paths may use this to skip building arguments.
bool Enabled();

/// Returns true when the named site should fail this call. Always false
/// when the injector is disabled or the site is not configured.
bool Inject(const char* site);

/// Replaces the configuration with `spec` (the LYRIC_FAULT grammar;
/// empty disables everything). Resets per-site call counters. Returns
/// false (leaving the previous config) when `spec` is malformed.
bool Configure(const std::string& spec);

/// True when `spec` is empty or well formed, i.e. Configure would take it.
bool ValidSpec(const std::string& spec);

}  // namespace fault
}  // namespace lyric

#endif  // LYRIC_UTIL_FAULT_H_
