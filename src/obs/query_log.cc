#include "obs/query_log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/metrics.h"
#include "util/string_util.h"

namespace lyric {
namespace obs {

namespace {

constexpr uint64_t kDefaultSinkMaxBytes = 16ull << 20;  // 16 MiB
constexpr size_t kQueryTextLimit = 200;

void AppendField(std::string* out, const char* key, uint64_t value,
                 bool* first) {
  if (!*first) *out += ", ";
  *first = false;
  *out += '"';
  *out += key;
  *out += "\": ";
  *out += std::to_string(value);
}

void AppendField(std::string* out, const char* key, const std::string& value,
                 bool* first) {
  if (!*first) *out += ", ";
  *first = false;
  *out += '"';
  *out += key;
  *out += "\": \"";
  *out += JsonEscape(value);
  *out += '"';
}

void AppendField(std::string* out, const char* key, bool value,
                 bool* first) {
  if (!*first) *out += ", ";
  *first = false;
  *out += '"';
  *out += key;
  *out += "\": ";
  *out += value ? "true" : "false";
}

}  // namespace

uint64_t HashQueryText(const std::string& text) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a 64-bit offset basis
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t SlowQueryThresholdMs() {
  static const uint64_t threshold = EnvUint64("LYRIC_SLOW_MS").value_or(0);
  return threshold;
}

std::string QueryLogRecord::ToJson() const {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "seq", seq, &first);
  AppendField(&out, "unix_ms", unix_ms, &first);
  // The hash prints as hex so grep / dashboards can match it against
  // trace filenames and cache keys without 20-digit decimals.
  char hash_buf[24];
  std::snprintf(hash_buf, sizeof(hash_buf), "%016llx",
                static_cast<unsigned long long>(query_hash));
  AppendField(&out, "query_hash", std::string(hash_buf), &first);
  AppendField(&out, "query", query, &first);
  AppendField(&out, "status", status, &first);
  AppendField(&out, "admission", admission, &first);
  AppendField(&out, "governor", governor, &first);
  AppendField(&out, "duration_ns", duration_ns, &first);
  AppendField(&out, "queue_wait_ns", queue_wait_ns, &first);
  AppendField(&out, "rows", rows, &first);
  AppendField(&out, "retries", static_cast<uint64_t>(retries), &first);
  AppendField(&out, "cache_hits", cache_hits, &first);
  AppendField(&out, "cache_misses", cache_misses, &first);
  AppendField(&out, "truncated", truncated, &first);
  AppendField(&out, "slow", slow, &first);
  if (!stages.empty()) AppendField(&out, "stages", stages, &first);
  out += '}';
  return out;
}

QueryLog& QueryLog::Global() {
  static QueryLog* instance = new QueryLog();
  return *instance;
}

QueryLog::QueryLog() {
  const char* env = std::getenv("LYRIC_QUERY_LOG");
  if (env != nullptr && *env != '\0') {
    sink_max_bytes_ = SplitNumericSuffix(env, &sink_path_).value_or(0);
    if (sink_max_bytes_ == 0) sink_max_bytes_ = kDefaultSinkMaxBytes;
    // Resume the running byte count if the sink already exists so
    // rotation thresholds hold across restarts.
    std::ifstream in(sink_path_, std::ios::ate | std::ios::binary);
    if (in) sink_bytes_ = static_cast<uint64_t>(in.tellg());
  }
}

void QueryLog::Append(QueryLogRecord record) {
  if (record.query.size() > kQueryTextLimit) {
    record.query.resize(kQueryTextLimit);
  }
  // The gauge handle is resolved before taking mu_: GetGauge acquires the
  // registry lock, which ranks BEFORE the query-log lock in the hierarchy
  // (registry -> sink). Resolving it under mu_ — as this code originally
  // did on every append — is a lock-order inversion the rank checker now
  // aborts on; Set itself is a relaxed atomic store needing no lock.
  static Gauge& records_gauge =
      Registry::Global().GetGauge("query_log.records");
  size_t ring_size = 0;
  {
    sync::MutexLock lock(mu_);
    record.seq = next_seq_++;
    record.unix_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    if (!sink_path_.empty()) {
      AppendToSinkLocked(record.ToJson() + "\n");
    }
    ring_.push_back(std::move(record));
    while (ring_.size() > capacity_) ring_.pop_front();
    ++total_;
    ring_size = ring_.size();
  }
  records_gauge.Set(static_cast<int64_t>(ring_size));
}

void QueryLog::AppendToSinkLocked(const std::string& line) {
  if (sink_max_bytes_ > 0 && sink_bytes_ + line.size() > sink_max_bytes_ &&
      sink_bytes_ > 0) {
    // Size-based rotation: one generation of history at `path.1`.
    std::string rotated = sink_path_ + ".1";
    std::remove(rotated.c_str());
    std::rename(sink_path_.c_str(), rotated.c_str());
    sink_bytes_ = 0;
  }
  std::ofstream out(sink_path_, std::ios::app);
  if (!out) return;
  out << line;
  sink_bytes_ += line.size();
}

std::vector<QueryLogRecord> QueryLog::Recent(size_t n) const {
  sync::MutexLock lock(mu_);
  size_t count = std::min(n, ring_.size());
  std::vector<QueryLogRecord> out;
  out.reserve(count);
  for (size_t i = ring_.size() - count; i < ring_.size(); ++i) {
    out.push_back(ring_[i]);
  }
  return out;
}

uint64_t QueryLog::total_appended() const {
  sync::MutexLock lock(mu_);
  return total_;
}

void QueryLog::ConfigureSink(const std::string& path, uint64_t max_bytes) {
  sync::MutexLock lock(mu_);
  sink_path_ = path;
  sink_max_bytes_ = max_bytes == 0 ? kDefaultSinkMaxBytes : max_bytes;
  sink_bytes_ = 0;
  if (!path.empty()) {
    std::ifstream in(path, std::ios::ate | std::ios::binary);
    if (in) sink_bytes_ = static_cast<uint64_t>(in.tellg());
  }
}

void QueryLog::SetCapacityForTesting(size_t capacity) {
  sync::MutexLock lock(mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
  while (ring_.size() > capacity_) ring_.pop_front();
}

void QueryLog::ClearForTesting() {
  sync::MutexLock lock(mu_);
  ring_.clear();
}

}  // namespace obs
}  // namespace lyric
