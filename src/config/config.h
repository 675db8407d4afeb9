// Config: every LYRIC_* environment variable, read once at the edge of
// the process (docs/CONFIG.md has the table of names, grammars and
// defaults). Each tool's main but lyric_stats' and the gtest main every
// test binary shares call Config::FromEnv().Apply() before any thread
// starts. FromEnv is the only code under src/ that reads the
// environment, so an embedder that never builds a Config gets the
// defaults. Apply installs the process-wide settings through the setters
// their modules own; Eval returns the per-query ones.

#ifndef LYRIC_CONFIG_CONFIG_H_
#define LYRIC_CONFIG_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "constraint/solver_cache.h"
#include "exec/scheduler.h"
#include "query/evaluator.h"

namespace lyric {

struct Config {
  // Per-query defaults (Eval).
  std::optional<uint64_t> deadline_ms;    ///< LYRIC_DEADLINE_MS
  std::optional<uint64_t> memory_budget;  ///< LYRIC_MEMORY_BUDGET (bytes)
  exec::RetryPolicy retry;                ///< LYRIC_RETRY
  // Process-wide settings (Apply).
  /// LYRIC_MAX_CONCURRENT, LYRIC_QUEUE_CAPACITY, LYRIC_QUEUE_TIMEOUT_MS,
  /// LYRIC_MAX_TOTAL_MEMORY.
  exec::SchedulerLimits scheduler;
  /// LYRIC_CACHE_CAPACITY (entries; 0 disables the cache).
  size_t cache_capacity = SolverCache::kDefaultCapacity;
  std::string fault;                 ///< LYRIC_FAULT; empty arms no site
  uint64_t slow_ms = 0;              ///< LYRIC_SLOW_MS; 0 = off
  std::string query_log;             ///< LYRIC_QUERY_LOG=path[:max_bytes]
  uint64_t query_log_max_bytes = 0;  ///< 0 = the sink's default
  std::string metrics_out;           ///< LYRIC_METRICS_OUT=path[:ms]
  uint64_t metrics_interval_ms = 0;  ///< 0 = the flusher's default
  int64_t storage_crash_at = -1;     ///< LYRIC_STORAGE_CRASH_AT; < 0 off
  int64_t storage_full_at = -1;      ///< LYRIC_STORAGE_FULL_AT; < 0 off

  /// Reads the 14 variables; an unset, empty or malformed one leaves its
  /// field at the default.
  static Config FromEnv();
  /// Installs the process-wide settings. Call from main before any other
  /// thread runs.
  void Apply() const;
  /// The per-query defaults: deadline, memory budget and retry policy.
  EvalOptions Eval() const;
};

}  // namespace lyric

#endif  // LYRIC_CONFIG_CONFIG_H_
