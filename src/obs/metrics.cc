#include "obs/metrics.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <fstream>
#include <limits>
#include <thread>

namespace lyric {
namespace obs {

namespace {

// Formats nanoseconds as a human-friendly duration.
std::string FormatNs(uint64_t ns) {
  char buf[32];
  if (ns >= 1000000000ull) {
    std::snprintf(buf, sizeof(buf), "%.3f s", static_cast<double>(ns) / 1e9);
  } else if (ns >= 1000000ull) {
    std::snprintf(buf, sizeof(buf), "%.3f ms",
                  static_cast<double>(ns) / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f us",
                  static_cast<double>(ns) / 1e3);
  }
  return buf;
}

// Length of the valid UTF-8 sequence starting at s[i], or 0 when the
// bytes there are not well-formed UTF-8 (stray continuation byte,
// truncated sequence, overlong encoding, surrogate, or > U+10FFFF).
size_t Utf8SequenceLength(const std::string& s, size_t i) {
  unsigned char c = static_cast<unsigned char>(s[i]);
  if (c < 0x80) return 1;
  size_t len;
  uint32_t cp;
  if ((c & 0xE0) == 0xC0) {
    len = 2;
    cp = c & 0x1Fu;
  } else if ((c & 0xF0) == 0xE0) {
    len = 3;
    cp = c & 0x0Fu;
  } else if ((c & 0xF8) == 0xF0) {
    len = 4;
    cp = c & 0x07u;
  } else {
    return 0;
  }
  if (i + len > s.size()) return 0;
  for (size_t k = 1; k < len; ++k) {
    unsigned char cc = static_cast<unsigned char>(s[i + k]);
    if ((cc & 0xC0) != 0x80) return 0;
    cp = (cp << 6) | (cc & 0x3Fu);
  }
  if (len == 2 && cp < 0x80) return 0;
  if (len == 3 && (cp < 0x800 || (cp >= 0xD800 && cp <= 0xDFFF))) return 0;
  if (len == 4 && (cp < 0x10000 || cp > 0x10FFFF)) return 0;
  return len;
}

// Prometheus metric names allow [a-zA-Z0-9_:]; everything else in our
// dotted metric names maps to '_', under a "lyric_" namespace prefix.
std::string PrometheusName(const std::string& name) {
  std::string out = "lyric_";
  out.reserve(out.size() + name.size());
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (size_t i = 0; i < s.size();) {
    unsigned char c = static_cast<unsigned char>(s[i]);
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      default: break;
    }
    if (c < 0x20 || c == 0x7F) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
      ++i;
      continue;
    }
    if (c < 0x80) {
      out += static_cast<char>(c);
      ++i;
      continue;
    }
    // Multi-byte: copy well-formed sequences through untouched; replace
    // each invalid byte with U+FFFD so the output is always valid UTF-8
    // (and therefore valid JSON).
    size_t len = Utf8SequenceLength(s, i);
    if (len == 0) {
      out += "\xEF\xBF\xBD";  // U+FFFD REPLACEMENT CHARACTER
      ++i;
    } else {
      out.append(s, i, len);
      i += len;
    }
  }
  return out;
}

uint64_t MetricsSnapshot::HistogramStats::ValueAtQuantile(double q) const {
  if (count == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (const auto& [idx, n] : buckets) {
    seen += n;
    if (seen >= rank) {
      // Report the bucket's upper edge, clamped to the observed max so a
      // high quantile of a small sample is exact.
      return std::min(Histogram::BucketUpperEdge(idx), max);
    }
  }
  return max;
}

MetricsSnapshot MetricsSnapshot::DeltaSince(
    const MetricsSnapshot& before) const {
  MetricsSnapshot out;
  for (const auto& [name, value] : counters) {
    auto it = before.counters.find(name);
    uint64_t base = it == before.counters.end() ? 0 : it->second;
    out.counters[name] = value >= base ? value - base : 0;
  }
  // Gauges are point-in-time, not cumulative: the delta carries this
  // snapshot's value unchanged.
  out.gauges = gauges;
  for (const auto& [name, stats] : histograms) {
    auto it = before.histograms.find(name);
    HistogramStats delta = stats;
    if (it != before.histograms.end()) {
      const HistogramStats& base = it->second;
      delta.count = stats.count >= base.count ? stats.count - base.count : 0;
      delta.sum = stats.sum >= base.sum ? stats.sum - base.sum : 0;
      // max is not subtractive; keep the later snapshot's max.
      delta.buckets.clear();
      size_t bi = 0;
      for (const auto& [idx, n] : stats.buckets) {
        while (bi < base.buckets.size() && base.buckets[bi].first < idx) ++bi;
        uint64_t sub = (bi < base.buckets.size() &&
                        base.buckets[bi].first == idx)
                           ? base.buckets[bi].second
                           : 0;
        if (n > sub) delta.buckets.emplace_back(idx, n - sub);
      }
    }
    out.histograms[name] = delta;
  }
  return out;
}

std::string MetricsSnapshot::ToString() const {
  std::string out;
  size_t width = 0;
  for (const auto& [name, value] : counters) {
    if (value != 0) width = std::max(width, name.size());
  }
  for (const auto& [name, value] : gauges) {
    if (value != 0) width = std::max(width, name.size());
  }
  for (const auto& [name, stats] : histograms) {
    if (stats.count != 0) width = std::max(width, name.size());
  }
  for (const auto& [name, value] : counters) {
    if (value == 0) continue;
    out += "  " + name + std::string(width + 2 - name.size(), ' ') +
           std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    if (value == 0) continue;
    out += "  " + name + std::string(width + 2 - name.size(), ' ') +
           std::to_string(value) + " (gauge)\n";
  }
  for (const auto& [name, stats] : histograms) {
    if (stats.count == 0) continue;
    out += "  " + name + std::string(width + 2 - name.size(), ' ') +
           std::to_string(stats.count) + " calls, p50 " +
           FormatNs(stats.p50()) + ", p90 " + FormatNs(stats.p90()) +
           ", p99 " + FormatNs(stats.p99()) + ", p999 " +
           FormatNs(stats.p999()) + ", max " + FormatNs(stats.max) + "\n";
  }
  if (out.empty()) out = "  (no metrics recorded)\n";
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\": ";
    out += std::to_string(value);
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\": ";
    out += std::to_string(value);
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, stats] : histograms) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\": {\"count\": ";
    out += std::to_string(stats.count);
    out += ", \"sum\": ";
    out += std::to_string(stats.sum);
    out += ", \"max\": ";
    out += std::to_string(stats.max);
    out += ", \"mean\": ";
    out += std::to_string(stats.mean());
    out += ", \"p50\": ";
    out += std::to_string(stats.p50());
    out += ", \"p90\": ";
    out += std::to_string(stats.p90());
    out += ", \"p99\": ";
    out += std::to_string(stats.p99());
    out += ", \"p999\": ";
    out += std::to_string(stats.p999());
    out += '}';
  }
  out += "}}";
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    std::string pname = PrometheusName(name) + "_total";
    out += "# TYPE " + pname + " counter\n";
    out += pname + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    std::string pname = PrometheusName(name);
    out += "# TYPE " + pname + " gauge\n";
    out += pname + " " + std::to_string(value) + "\n";
  }
  // Histograms record nanoseconds; the "_ns" suffix makes the unit
  // explicit in the series name.
  for (const auto& [name, stats] : histograms) {
    std::string pname = PrometheusName(name) + "_ns";
    out += "# TYPE " + pname + " summary\n";
    out += pname + "{quantile=\"0.5\"} " + std::to_string(stats.p50()) + "\n";
    out += pname + "{quantile=\"0.9\"} " + std::to_string(stats.p90()) + "\n";
    out += pname + "{quantile=\"0.99\"} " + std::to_string(stats.p99()) +
           "\n";
    out +=
        pname + "{quantile=\"0.999\"} " + std::to_string(stats.p999()) + "\n";
    out += pname + "_sum " + std::to_string(stats.sum) + "\n";
    out += pname + "_count " + std::to_string(stats.count) + "\n";
    out += "# TYPE " + pname + "_max gauge\n";
    out += pname + "_max " + std::to_string(stats.max) + "\n";
  }
  return out;
}

namespace {

bool IsNameStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}
bool IsNameChar(char c) { return IsNameStartChar(c) || (c >= '0' && c <= '9'); }

}  // namespace

bool ValidatePrometheusExposition(const std::string& text,
                                  std::string* error) {
  std::vector<std::string> seen_series;
  size_t line_no = 0;
  size_t pos = 0;
  auto fail = [&](const std::string& why) {
    if (error) *error = "line " + std::to_string(line_no) + ": " + why;
    return false;
  };
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') continue;  // HELP/TYPE/comment lines.
    // Sample line: name[{labels}] value [timestamp]
    size_t i = 0;
    if (!IsNameStartChar(line[0])) return fail("bad metric name start");
    while (i < line.size() && IsNameChar(line[i])) ++i;
    std::string series = line.substr(0, i);
    if (i < line.size() && line[i] == '{') {
      size_t close = line.find('}', i);
      if (close == std::string::npos) return fail("unterminated label set");
      // Quotes inside the label set must be balanced.
      size_t quotes = 0;
      for (size_t k = i; k < close; ++k) {
        if (line[k] == '"' && (k == 0 || line[k - 1] != '\\')) ++quotes;
      }
      if (quotes % 2 != 0) return fail("unbalanced quotes in labels");
      series = line.substr(0, close + 1);
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') {
      return fail("expected space before value");
    }
    ++i;
    std::string value = line.substr(i);
    // Strip an optional timestamp after the value.
    size_t sp = value.find(' ');
    if (sp != std::string::npos) value = value.substr(0, sp);
    if (value.empty()) return fail("missing value");
    if (value != "+Inf" && value != "-Inf" && value != "NaN") {
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return fail("unparseable value '" + value + "'");
      }
    }
    for (const std::string& prev : seen_series) {
      if (prev == series) return fail("duplicate series " + series);
    }
    seen_series.push_back(series);
  }
  if (error) error->clear();
  return true;
}

Registry& Registry::Global() {
  static Registry* instance = new Registry();
  return *instance;
}

Counter& Registry::GetCounter(const std::string& name) {
  sync::MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter(name)))
             .first;
  }
  return *it->second;
}

Gauge& Registry::GetGauge(const std::string& name) {
  sync::MutexLock lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge(name))).first;
  }
  return *it->second;
}

Histogram& Registry::GetHistogram(const std::string& name) {
  sync::MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::unique_ptr<Histogram>(new Histogram(name)))
             .first;
  }
  return *it->second;
}

MetricsSnapshot Registry::Snapshot() const {
  sync::MutexLock lock(mu_);
  MetricsSnapshot out;
  for (const auto& [name, counter] : counters_) {
    out.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    out.gauges[name] = gauge->value();
  }
  for (const auto& [name, hist] : histograms_) {
    MetricsSnapshot::HistogramStats stats;
    stats.count = hist->count_.load(std::memory_order_relaxed);
    stats.sum = hist->sum_.load(std::memory_order_relaxed);
    stats.max = hist->max_.load(std::memory_order_relaxed);
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      uint64_t n = hist->buckets_[i].load(std::memory_order_relaxed);
      if (n != 0) stats.buckets.emplace_back(static_cast<uint32_t>(i), n);
    }
    out.histograms[name] = stats;
  }
  return out;
}

namespace {

// The flusher's target, set once when it starts.
std::string* g_metrics_out_path = nullptr;

void FlushMetricsAtExit() {
  if (g_metrics_out_path != nullptr) WriteMetricsFile(*g_metrics_out_path);
}

}  // namespace

bool WriteMetricsFile(const std::string& path) {
  bool prom = path.size() >= 5 &&
              path.compare(path.size() - 5, 5, ".prom") == 0;
  std::string body = prom ? Registry::Global().ExportPrometheus()
                          : Registry::Global().ExportJson();
  // Atomic replace: write a temp file next to the target, then rename.
  static std::atomic<uint64_t> seq{0};
  std::string tmp =
      path + ".tmp." + std::to_string(seq.fetch_add(1) % 4 + 1);
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    out << body;
    if (!out.flush()) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

void StartMetricsFlusher(const std::string& path, uint64_t interval_ms) {
  static std::atomic<bool> started{false};
  if (path.empty() || started.exchange(true)) return;
  if (interval_ms == 0) interval_ms = 5000;
  // Past int64 the millisecond count would turn negative and the writer
  // would spin instead of sleeping.
  interval_ms =
      std::min<uint64_t>(interval_ms, std::numeric_limits<int64_t>::max());
  g_metrics_out_path = new std::string(path);
  std::atexit(FlushMetricsAtExit);
  // Detached writer: the registry singleton is leaked, so the thread can
  // safely outlive main() right up to process teardown.
  std::thread([interval_ms] {
    const std::string target = *g_metrics_out_path;
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      WriteMetricsFile(target);
    }
  }).detach();
}

}  // namespace obs
}  // namespace lyric
