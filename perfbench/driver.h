// Runs one benchmark workload and turns what it observed into metrics.

#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct RunOptions {
  WorkloadKind kind = WorkloadKind::kOfficeWarm;
  uint64_t seed = 1;
  /// Measured time of the run: rounds of identical work, each on fresh
  /// state, repeat while one more fits into this much time in measured
  /// phases (at least three rounds; see README.md).
  double seconds = 10;
  /// false: untraced end-to-end metrics. true: per-layer metrics from a
  /// traced phase that follows an untraced one in every round.
  bool trace = false;
  /// Directory for durable_mixed's store files (created if missing).
  std::string workdir = ".bench_build/work";
  /// This executable (argv[0]), which the run starts as the child process
  /// that times the reference kernel.
  std::string self = "lyric_perfbench";
  /// When set (trace runs), the benchmark's own spans are written here
  /// as Chrome trace_event JSON.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  /// False when any operation failed verification or a workload
  /// self-check tripped; `problems` says why.
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Verified read latencies behind each of query_p50_us and
  /// query_p99_us: the reads of one round, or solver_cold's distinct
  /// queries.
  uint64_t query_samples = 0;
  /// Rounds run (solver_cold: passes over its queries).
  uint64_t rounds = 0;
  /// Time spent in measured phases.
  double measured_seconds = 0;
  /// Untraced runs: the reference kernel's median time over
  /// the run, the number of times it ran, and the factor every reported
  /// time was multiplied by (throughput divided by).
  double reference_ms = 0;
  uint64_t reference_samples = 0;
  double time_scale = 0;
  std::vector<Metric> metrics;
  /// The end-to-end metrics as measured, before scaling.
  std::vector<Metric> measured;
  std::vector<std::string> problems;
};

RunReport RunBenchmark(const RunOptions& options);

/// The reference kernel: median wall time of five runs of a fixed piece
/// of allocation-heavy work, in ns, in each of `threads` threads at once;
/// the median over the threads. `lyric_perfbench --reference THREADS`
/// prints it; a benchmark run times it in such a child process between
/// rounds.
double ReferenceKernelNs(size_t threads);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
