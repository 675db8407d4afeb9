// Per-query event log: one structured record per evaluation, kept in a
// bounded in-memory ring (the shell's `.log` reads it) and optionally
// appended as JSONL to a sink file with size-based rotation.
//
// The evaluator fills a QueryLogRecord as each query finishes — outcome,
// timing, row count, cache traffic, admission/governor verdicts — and
// hands it to QueryLog::Global().Append(). Recording is cheap (one mutex
// acquisition and, when a sink is configured, one buffered write); the
// record layer deliberately depends only on std + obs so every layer
// above it can log without cycles.
//
// Environment:
//   LYRIC_QUERY_LOG=path[:max_bytes]  append records as JSONL; when the
//       file exceeds max_bytes (default 16 MiB) it is rotated once to
//       `path.1` and restarted.
//   LYRIC_SLOW_MS=N  queries slower than N milliseconds are marked slow
//       and carry their full per-stage profile in the record (the
//       evaluator collects a trace for them even when tracing is off).

#ifndef LYRIC_OBS_QUERY_LOG_H_
#define LYRIC_OBS_QUERY_LOG_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/sync.h"

namespace lyric {
namespace obs {

/// Everything the flight recorder keeps about one query evaluation.
/// String fields hold small closed vocabularies ("ok", "shed", ...) so
/// the log stays decoupled from the evaluator's own enums.
struct QueryLogRecord {
  uint64_t seq = 0;        // assigned by Append, monotonic per process
  uint64_t unix_ms = 0;    // wall-clock completion time
  uint64_t query_hash = 0; // stable hash of the query text
  std::string query;       // leading fragment of the query text
  std::string status;      // "ok" or the error category
  std::string admission;   // "direct", "queued", "shed", "off"
  std::string governor;    // "", "deadline", "memory", "cancelled"
  uint64_t duration_ns = 0;
  uint64_t queue_wait_ns = 0;
  uint64_t rows = 0;
  uint32_t retries = 0;
  uint64_t cache_hits = 0;       // solver-cache deltas over this query
  uint64_t cache_misses = 0;
  bool truncated = false;  // row cap hit
  bool slow = false;       // duration exceeded the LYRIC_SLOW_MS threshold
  std::string stages;      // per-stage profile (slow queries only)

  /// The record as one JSON object (no trailing newline).
  std::string ToJson() const;
};

/// Process-wide bounded ring of recent QueryLogRecords plus the optional
/// JSONL sink. Thread-safe.
class QueryLog {
 public:
  /// The global log. First use reads LYRIC_QUERY_LOG to configure the
  /// sink.
  static QueryLog& Global();

  /// Stamps seq/unix_ms, appends to the ring (evicting the oldest record
  /// past capacity) and to the sink when one is configured.
  void Append(QueryLogRecord record) LYRIC_EXCLUDES(mu_);

  /// The most recent `n` records, oldest first.
  std::vector<QueryLogRecord> Recent(size_t n) const LYRIC_EXCLUDES(mu_);

  /// Records accepted since process start (ring evictions included).
  uint64_t total_appended() const LYRIC_EXCLUDES(mu_);

  /// Points the JSONL sink at `path` (empty disables). Replaces any
  /// sink configured from the environment.
  void ConfigureSink(const std::string& path, uint64_t max_bytes)
      LYRIC_EXCLUDES(mu_);

  /// Shrinks/grows the ring (testing; default capacity 256).
  void SetCapacityForTesting(size_t capacity) LYRIC_EXCLUDES(mu_);
  /// Drops all buffered records (testing).
  void ClearForTesting() LYRIC_EXCLUDES(mu_);

 private:
  QueryLog();

  void AppendToSinkLocked(const std::string& line) LYRIC_REQUIRES(mu_);

  // The sink lock ranks after the obs registry: metric handles must be
  // resolved before taking mu_, never under it (Append hoists its gauge
  // handle for exactly this reason).
  mutable sync::Mutex mu_{sync::LockRank::kQueryLog, "query_log"};
  std::deque<QueryLogRecord> ring_ LYRIC_GUARDED_BY(mu_);
  size_t capacity_ LYRIC_GUARDED_BY(mu_) = 256;
  uint64_t next_seq_ LYRIC_GUARDED_BY(mu_) = 1;
  uint64_t total_ LYRIC_GUARDED_BY(mu_) = 0;
  std::string sink_path_ LYRIC_GUARDED_BY(mu_);
  uint64_t sink_max_bytes_ LYRIC_GUARDED_BY(mu_) = 0;
  uint64_t sink_bytes_ LYRIC_GUARDED_BY(mu_) = 0;
};

/// The slow-query threshold in milliseconds from LYRIC_SLOW_MS, or 0 when
/// unset/invalid (slow-query promotion off). Read once per process.
uint64_t SlowQueryThresholdMs();

/// FNV-1a over the query text — the stable query_hash the log records.
uint64_t HashQueryText(const std::string& text);

}  // namespace obs
}  // namespace lyric

#endif  // LYRIC_OBS_QUERY_LOG_H_
