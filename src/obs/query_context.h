// QueryContext: the per-query state that code far below the evaluator
// reads without a parameter threaded through every signature — the
// governor token the constraint kernels check, the trace collector that
// spans record into, and the query's own solver-cache traffic.
//
// The evaluator installs one context per query on the evaluating thread
// (QueryContextScope), around the parse and every admission attempt. A
// query runs on that one thread and nothing else runs there meanwhile, so
// the fields are plain. A thread with no context installed (a unit test
// calling a kernel directly, a server thread between queries) reads
// nullptr, which every reader treats as ungoverned, untraced and
// unattributed.
//
// obs sits below exec, constraint and query, so every reader links it;
// the token is only forward-declared here.

#ifndef LYRIC_OBS_QUERY_CONTEXT_H_
#define LYRIC_OBS_QUERY_CONTEXT_H_

#include <cstdint>

namespace lyric {
namespace exec {
class CancellationToken;
}  // namespace exec

namespace obs {

class TraceCollector;

/// What one query's evaluation shares with the kernels it calls.
struct QueryContext {
  /// The query's governor token (exec/governor.h), or nullptr when the
  /// query is ungoverned. Attached after admission and the pre-flight.
  exec::CancellationToken* token = nullptr;
  /// The collector obs::Span records into, or nullptr when untraced.
  TraceCollector* trace = nullptr;
  /// SolverCache lookups this query made that hit and that missed.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  /// The context installed on the calling thread, or nullptr.
  static QueryContext* Current();
};

/// Installs a context on the calling thread for the scope's lifetime and
/// restores the previous one on exit.
class QueryContextScope {
 public:
  explicit QueryContextScope(QueryContext* context);
  ~QueryContextScope();

  QueryContextScope(const QueryContextScope&) = delete;
  QueryContextScope& operator=(const QueryContextScope&) = delete;

 private:
  QueryContext* previous_;
};

}  // namespace obs
}  // namespace lyric

#endif  // LYRIC_OBS_QUERY_CONTEXT_H_
