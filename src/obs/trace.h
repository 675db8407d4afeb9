// Per-query evaluation tracing: RAII scoped spans building a tree of
// timed stages (parse -> analyze -> FROM enumeration -> per-binding WHERE
// evaluation -> SELECT construction), exportable as indented text and as
// Chrome trace_event JSON (load with chrome://tracing or
// https://ui.perfetto.dev).
//
// Tracing is opt-in and zero-overhead when off: a Span constructed while
// no collector is installed on the current thread is a single
// thread_local null check. Install a collector with ScopedTraceSession
// (the evaluator does this when EvalOptions::collect_trace is set). A
// collector records the spans of the one thread that installed it, so
// span recording takes no lock.

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

  /// Closes the root span at the current time (idempotent; also called by
  /// ScopedTraceSession when the session ends).
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
  friend class ScopedTraceSession;

  uint64_t NowNs() const;

  SpanNode root_;
  // The innermost open span; new spans become its children.
  SpanNode* current_ = &root_;
  std::chrono::steady_clock::time_point base_;
  bool finished_ = false;
};

/// Installs a TraceCollector as the current thread's collector for the
/// lifetime of the session (restores the previous one on exit, so
/// sessions nest).
class ScopedTraceSession {
 public:
  explicit ScopedTraceSession(TraceCollector* collector);
  ~ScopedTraceSession();

  /// Finishes the collector and restores the previous one. Idempotent;
  /// the destructor calls it if the caller did not.
  void Stop();

  ScopedTraceSession(const ScopedTraceSession&) = delete;
  ScopedTraceSession& operator=(const ScopedTraceSession&) = delete;

 private:
  TraceCollector* collector_;
  TraceCollector* previous_;
  bool stopped_ = false;
};

/// RAII scoped span. A no-op (one thread_local load) when no collector is
/// installed on the current thread.
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
