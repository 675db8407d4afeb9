// Per-query evaluation tracing: RAII scoped spans building a tree of
// timed stages (parse -> analyze -> FROM enumeration -> per-binding WHERE
// evaluation -> SELECT construction), exportable as indented text and as
// Chrome trace_event JSON (load with chrome://tracing or
// https://ui.perfetto.dev).
//
// Tracing is opt-in and zero-overhead when off: a Span records into the
// collector of the calling thread's QueryContext (obs/query_context.h),
// and with no context or no collector it is a thread-local load and a
// null test or two. The evaluator sets the collector when
// EvalOptions::collect_trace is set or a slow-query threshold is armed.
// A collector records the spans of the one thread evaluating its query,
// so span recording takes no lock.

#ifndef LYRIC_OBS_TRACE_H_
#define LYRIC_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace lyric {
namespace obs {

/// One node of a trace tree: a named stage with a start offset and
/// duration (nanoseconds relative to the collector's start).
struct SpanNode {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  std::vector<std::unique_ptr<SpanNode>> children;

  /// The first direct child with the given name, or nullptr.
  const SpanNode* FindChild(const std::string& child_name) const;
  /// Number of direct children with the given name.
  size_t CountChildren(const std::string& child_name) const;
};

/// Collects the span tree of one query evaluation, rooted at "query",
/// on the thread that installed it.
class TraceCollector {
 public:
  TraceCollector();

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Closes the root span at the current time. The evaluator calls it
  /// once the query's last span has closed.
  void Finish();

  /// The span tree (rooted at "query").
  const SpanNode& root() const { return root_; }

  /// Indented stage breakdown with durations.
  std::string ToPrettyString() const;

  /// Chrome trace_event JSON: {"traceEvents": [{"name", "ph": "X", "ts",
  /// "dur", "pid", "tid"}, ...]} with microsecond timestamps, all on
  /// tid 1.
  std::string ToChromeTraceJson() const;

 private:
  friend class Span;

  uint64_t NowNs() const;

  SpanNode root_;
  // The innermost open span; new spans become its children.
  SpanNode* current_ = &root_;
  std::chrono::steady_clock::time_point base_;
};

/// RAII scoped span. A no-op (a thread-local load and at most two null
/// tests) when the current thread's query is untraced.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceCollector* collector_ = nullptr;
  SpanNode* node_ = nullptr;
  SpanNode* parent_ = nullptr;
};

}  // namespace obs
}  // namespace lyric

#endif  // LYRIC_OBS_TRACE_H_
