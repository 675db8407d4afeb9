// Process-wide observability metrics: named atomic counters, gauges and
// log-linear latency histograms, collected in a global registry — the
// "flight recorder" substrate the server tooling reports through.
//
// Counters are monotonic and always on: an increment is a single relaxed
// atomic add, negligible next to the exact-rational arithmetic it counts
// (bench_paper_queries stays within noise of an uninstrumented build).
// Gauges are point-in-time values (queue depth, ledger memory, cache
// occupancy) set by their owning subsystem with the same relaxed-atomic
// cost. Histograms bucket recorded values (by convention: nanoseconds)
// into log-linear buckets — 16 linear sub-buckets per power of two, so
// any recorded value lands within ~6% of its bucket's upper edge — and a
// Record is three relaxed adds plus a max CAS. Reading is the only
// operation that takes a lock: Registry::Snapshot() copies every value
// under the registry mutex, so hot paths never contend with readers.
//
// Usage on a hot path — resolve the handle once per call site:
//
//   LYRIC_OBS_COUNT("simplex.pivots");              // +1
//   LYRIC_OBS_COUNT_N("fm.atoms_generated", pairs); // +pairs
//
// or keep an explicit handle when a site needs several updates:
//
//   static obs::Histogram& lat =
//       obs::Registry::Global().GetHistogram("simplex.solve");
//   obs::ScopedHistogramTimer t(lat);   // records elapsed ns on scope exit
//
// Snapshots subtract (`DeltaSince`) so per-query and per-benchmark deltas
// come straight out of the monotonic values, and export as a pretty
// table, JSON, or Prometheus text exposition (ExportPrometheus). Setting
// LYRIC_METRICS_OUT=path[:interval_ms] arms a background flusher that
// rewrites `path` periodically (and once at exit); a ".prom" suffix
// selects the Prometheus format, anything else gets JSON.

#ifndef LYRIC_OBS_METRICS_H_
#define LYRIC_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.h"

namespace lyric {
namespace obs {

/// A named monotonic counter. Obtained from Registry::GetCounter; the
/// reference stays valid for the life of the process.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  std::string name_;
  std::atomic<uint64_t> value_{0};
};

/// A named point-in-time value — queue depth, ledger bytes, cache
/// occupancy. Owned by exactly one subsystem, which calls Set/Add as its
/// state changes; readers see the latest value in Registry snapshots.
/// Signed so transient imbalances (Add/Sub races during shutdown) can
/// never wrap to 2^64.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  std::string name_;
  std::atomic<int64_t> value_{0};
};

/// A log-linear histogram of uint64 values (by convention nanoseconds).
///
/// Bucketing: values below 16 get exact buckets; above that, each power
/// of two is split into 16 linear sub-buckets, so the bucket containing a
/// value spans at most 1/16 of its magnitude (p50/p99 read from a
/// snapshot are within ~6% of the true order statistic). 976 buckets
/// cover the full uint64 range in ~8 KB of atomics per histogram.
///
/// Record is wait-free: one relaxed add on the bucket, count and sum, and
/// a relaxed CAS loop for the max — safe from any thread, no locks.
class Histogram {
 public:
  static constexpr size_t kSubBits = 4;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBits;  // 16
  static constexpr size_t kNumBuckets =
      (64 - kSubBits) * kSubBuckets + kSubBuckets;  // 976

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (prev < value &&
           !max_.compare_exchange_weak(prev, value,
                                       std::memory_order_relaxed)) {
    }
  }

  const std::string& name() const { return name_; }

  /// The bucket a value lands in.
  static size_t BucketIndex(uint64_t value) {
    if (value < kSubBuckets) return static_cast<size_t>(value);
    // Highest set bit; value >= 16 so log2 >= kSubBits.
    int log2 = 63 - __builtin_clzll(value);
    size_t sub = static_cast<size_t>(
        (value >> (log2 - static_cast<int>(kSubBits))) & (kSubBuckets - 1));
    return (static_cast<size_t>(log2) - kSubBits + 1) * kSubBuckets + sub;
  }

  /// Upper edge of bucket `index` — the value reported for percentiles
  /// that land in it (so reported quantiles are conservative: >= the true
  /// order statistic, within one sub-bucket width).
  static uint64_t BucketUpperEdge(size_t index) {
    if (index < kSubBuckets) return static_cast<uint64_t>(index);
    size_t block = index / kSubBuckets;  // >= 1
    size_t sub = index % kSubBuckets;
    int log2 = static_cast<int>(block + kSubBits - 1);
    uint64_t width = uint64_t{1} << (log2 - static_cast<int>(kSubBits));
    uint64_t lower = (uint64_t{1} << log2) + sub * width;
    return lower + width - 1;
  }

 private:
  friend class Registry;
  explicit Histogram(std::string name) : name_(std::move(name)) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  std::string name_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
  std::atomic<uint64_t> buckets_[kNumBuckets]{};
};

/// RAII wall-clock measurement into a Histogram (nanoseconds).
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram& hist)
      : hist_(hist), start_(std::chrono::steady_clock::now()) {}
  ~ScopedHistogramTimer() {
    auto elapsed = std::chrono::steady_clock::now() - start_;
    hist_.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }
  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

 private:
  Histogram& hist_;
  std::chrono::steady_clock::time_point start_;
};

/// A point-in-time copy of every registered metric.
struct MetricsSnapshot {
  struct HistogramStats {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    /// Sparse occupied buckets, ascending by index.
    std::vector<std::pair<uint32_t, uint64_t>> buckets;

    /// The value at quantile q in [0, 1] (bucket upper edge — within one
    /// log-linear sub-bucket of the true order statistic). 0 when empty.
    uint64_t ValueAtQuantile(double q) const;
    uint64_t p50() const { return ValueAtQuantile(0.50); }
    uint64_t p90() const { return ValueAtQuantile(0.90); }
    uint64_t p99() const { return ValueAtQuantile(0.99); }
    uint64_t p999() const { return ValueAtQuantile(0.999); }
    uint64_t mean() const { return count == 0 ? 0 : sum / count; }
  };

  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramStats> histograms;

  /// Per-metric difference `this - before` (counters are monotonic, so the
  /// delta of a later snapshot against an earlier one is non-negative).
  /// Metrics registered after `before` appear with their full value.
  /// Gauges are point-in-time: the delta keeps this snapshot's value.
  /// Histogram bucket counts subtract, so percentiles of a delta describe
  /// only the interval's recordings; max keeps the later snapshot's max.
  MetricsSnapshot DeltaSince(const MetricsSnapshot& before) const;

  /// Pretty table of the non-zero metrics (one "name  value" line each;
  /// histograms print count, p50/p90/p99/p999 and max as durations).
  std::string ToString() const;

  /// {"counters": {...}, "gauges": {...},
  ///  "histograms": {name: {count, sum, max, mean, p50, p90, p99, p999}}}.
  std::string ToJson() const;

  /// Prometheus text exposition (version 0.0.4): counters as
  /// `lyric_<name>_total`, gauges as gauges, histograms as summaries
  /// with quantile series. Metric names are sanitized
  /// (non-[a-zA-Z0-9_:] -> '_').
  std::string ToPrometheus() const;
};

/// The process-wide metric registry. Get-or-create is mutex-guarded;
/// returned references are stable forever.
class Registry {
 public:
  static Registry& Global();

  Counter& GetCounter(const std::string& name) LYRIC_EXCLUDES(mu_);
  Gauge& GetGauge(const std::string& name) LYRIC_EXCLUDES(mu_);
  Histogram& GetHistogram(const std::string& name) LYRIC_EXCLUDES(mu_);

  MetricsSnapshot Snapshot() const LYRIC_EXCLUDES(mu_);

  /// Snapshot().ToPrometheus() / Snapshot().ToJson() — the two wire
  /// formats (shell `.metrics`, the metrics flusher, and
  /// tools/lyric_stats all speak these).
  std::string ExportPrometheus() const { return Snapshot().ToPrometheus(); }
  std::string ExportJson() const { return Snapshot().ToJson(); }

 private:
  Registry() = default;

  // The registry lock guards only the name -> object maps; the metric
  // objects themselves are atomics, updated lock-free after resolution.
  // Ranked after every subsystem lock (counters resolve under them) and
  // before the query-log sink.
  mutable sync::Mutex mu_{sync::LockRank::kObsRegistry, "obs_registry"};
  std::map<std::string, std::unique_ptr<Counter>> counters_
      LYRIC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ LYRIC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      LYRIC_GUARDED_BY(mu_);
};

/// Escapes `s` for inclusion in a JSON string literal (shared by the
/// metric, trace and query-log exporters). Output is always valid JSON:
/// quotes/backslashes/control characters are escaped, DEL is escaped,
/// and bytes that do not form valid UTF-8 sequences are replaced with
/// U+FFFD so the document stays parseable.
std::string JsonEscape(const std::string& s);

/// Validates a Prometheus text exposition: every line is a comment or a
/// well-formed `name[{labels}] value` sample, and no series
/// (name + label set) appears twice. Returns true when valid; otherwise
/// false with a description of the first problem in `*error`.
bool ValidatePrometheusExposition(const std::string& text,
                                  std::string* error);

/// Starts the background flusher that writes the registry to `path`
/// every `interval_ms` (0 = 5000 ms) and once more at process exit; a
/// ".prom" path gets Prometheus text, anything else JSON. No-op for an
/// empty path or once a flusher runs. Config::Apply starts it from
/// LYRIC_METRICS_OUT=path[:interval_ms].
void StartMetricsFlusher(const std::string& path, uint64_t interval_ms);

/// Writes the current metrics to `path` in the format implied by its
/// extension (atomic: temp file + rename). Returns false on I/O failure.
/// The flusher calls this; the shell's `.metrics FORMAT PATH` reuses it.
bool WriteMetricsFile(const std::string& path);

}  // namespace obs
}  // namespace lyric

/// Increments the named global counter by 1 / by `n`. The handle lookup
/// happens once per call site (function-local static).
#define LYRIC_OBS_COUNT(name) LYRIC_OBS_COUNT_N(name, 1)
#define LYRIC_OBS_COUNT_N(name, n)                            \
  do {                                                        \
    static ::lyric::obs::Counter& lyric_obs_counter_ =        \
        ::lyric::obs::Registry::Global().GetCounter(name);    \
    lyric_obs_counter_.Increment(                             \
        static_cast<uint64_t>(n));                            \
  } while (0)

/// Records `nanos` into the named global histogram.
#define LYRIC_OBS_RECORD(name, nanos)                         \
  do {                                                        \
    static ::lyric::obs::Histogram& lyric_obs_hist_ =         \
        ::lyric::obs::Registry::Global().GetHistogram(name);  \
    lyric_obs_hist_.Record(static_cast<uint64_t>(nanos));     \
  } while (0)

#endif  // LYRIC_OBS_METRICS_H_
