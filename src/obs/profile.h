// QueryProfile: the per-query observability record the evaluator attaches
// to a ResultSet when EvalOptions::collect_trace is set — the evaluation
// span tree plus registry snapshots taken before and after, so the
// counter *deltas* attribute engine work (simplex pivots, FM
// eliminations, redundancy LPs, ...) to this one query.

#ifndef LYRIC_OBS_PROFILE_H_
#define LYRIC_OBS_PROFILE_H_

#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace lyric {
namespace obs {

/// Everything observed while evaluating one query.
struct QueryProfile {
  TraceCollector trace;
  MetricsSnapshot counters_before;
  MetricsSnapshot counters_after;

  /// Counter and histogram deltas attributable to this query.
  MetricsSnapshot CounterDeltas() const {
    return counters_after.DeltaSince(counters_before);
  }

  /// Stage breakdown (indented spans with durations) followed by the
  /// non-zero counter deltas.
  std::string ToString() const;

  /// Chrome trace_event JSON for chrome://tracing / Perfetto.
  std::string ToChromeTraceJson() const {
    return trace.ToChromeTraceJson();
  }
};

}  // namespace obs
}  // namespace lyric

#endif  // LYRIC_OBS_PROFILE_H_
