// lyric_perfbench: the LyriC end-to-end benchmark.
//
//   lyric_perfbench --workload office_warm|solver_cold|durable_mixed
//                   [--seed N] [--seconds S] [--trace 0|1]
//                   [--workdir DIR] [--trace-out FILE]
//   lyric_perfbench --selftest
//   lyric_perfbench --reference [THREADS]   (times the reference kernel)
//
// A run prints a human summary on stderr and, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (see README.md in this directory). The exit code is 0
// only when every answer verified and every workload self-check passed.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>

#include "driver.h"
#include "workloads.h"

namespace perfbench {
namespace {

void PrintReport(const RunReport& report) {
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

void PrintSummary(const RunOptions& opt, const RunReport& report) {
  std::cerr << "workload " << WorkloadName(opt.kind) << " seed " << opt.seed
            << (opt.trace ? " (traced)" : "") << ": attempted "
            << report.attempted << ", failed " << report.failed
            << ", failed_ratio "
            << (report.attempted
                    ? static_cast<double>(report.failed) /
                          static_cast<double>(report.attempted)
                    : 0.0)
            << ", read samples per percentile " << report.query_samples
            << ", measured " << report.measured_seconds << " s in "
            << report.rounds
            << (opt.kind == WorkloadKind::kSolverCold ? " passes" : " rounds")
            << "\n";
  if (report.reference_samples > 0) {
    std::cerr << "  reference kernel " << report.reference_ms << " ms (median of "
              << report.reference_samples << "), times scaled by "
              << report.time_scale << "\n";
  }
  for (const Metric& m : report.metrics) {
    std::cerr << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  for (const Metric& m : report.measured) {
    std::cerr << "  (as measured) " << m.name << " = " << m.value << " "
              << m.unit << "\n";
  }
  for (const std::string& p : report.problems) {
    std::cerr << "FAILED: " << p << "\n";
  }
}

int Usage() {
  std::cerr << "usage: lyric_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--workdir DIR] "
               "[--trace-out FILE]\n"
               "       lyric_perfbench --selftest\n";
  return 2;
}

std::string OpStream(WorkloadKind kind, uint64_t seed, uint64_t n) {
  std::string out;
  for (uint64_t i = 0; i < n; ++i) out += MakeOp(kind, seed, i).text + "\n";
  return out;
}

/// The generator and smoke checks (ctest: perfbench_selftest).
int SelfTest(const std::string& self) {
  int failures = 0;
  auto check = [&](bool ok, const std::string& what) {
    std::cerr << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  };
  for (WorkloadKind kind : {WorkloadKind::kOfficeWarm, WorkloadKind::kSolverCold,
                            WorkloadKind::kDurableMixed}) {
    const std::string name = WorkloadName(kind);
    check(OpStream(kind, 42, 400) == OpStream(kind, 42, 400),
          name + ": same seed, byte-identical operations");
    check(OpStream(kind, 42, 400) != OpStream(kind, 43, 400),
          name + ": another seed, another sequence");
  }
  // Constants move with the seed: almost no solver_cold query text or
  // durable_mixed view body of seed 43 also occurs under seed 42 (the
  // Q2-style anchors come from a grid of 1625 points, so a few may).
  std::set<std::string> texts;
  for (uint64_t i = 0; i < 400; ++i) {
    texts.insert(MakeOp(WorkloadKind::kSolverCold, 42, i).text);
    const Op w = MakeOp(WorkloadKind::kDurableMixed, 42, i);
    if (w.write) texts.insert(w.text.substr(w.text.find(" AS ")));
  }
  size_t repeated = 0, drawn = 0;
  for (uint64_t i = 0; i < 400; ++i, ++drawn) {
    repeated += texts.count(MakeOp(WorkloadKind::kSolverCold, 43, i).text);
    const Op w = MakeOp(WorkloadKind::kDurableMixed, 43, i);
    if (w.write) {
      repeated += texts.count(w.text.substr(w.text.find(" AS ")));
      ++drawn;
    }
  }
  check(repeated * 50 <= drawn,
        "another seed draws other constants (" + std::to_string(repeated) +
            " of " + std::to_string(drawn) + " texts repeat)");
  size_t writes = 0;
  for (uint64_t i = 0; i < 2000; ++i) {
    writes += MakeOp(WorkloadKind::kDurableMixed, 42, i).write;
  }
  check(writes > 60 && writes < 140,
        "about 1 in 20 durable_mixed operations writes (" +
            std::to_string(writes) + " of 2000)");

  // Smoke: a short run of every workload, untraced and traced, verifies.
  for (WorkloadKind kind : {WorkloadKind::kOfficeWarm, WorkloadKind::kSolverCold,
                            WorkloadKind::kDurableMixed}) {
    for (bool trace : {false, true}) {
      RunOptions opt;
      opt.kind = kind;
      opt.seed = 5;
      opt.seconds = 0.6;
      opt.trace = trace;
      opt.workdir = "perfbench-selftest";
      opt.self = self;
      RunReport report = RunBenchmark(opt);
      PrintSummary(opt, report);
      check(report.correct && report.failed == 0 && report.attempted > 0,
            std::string("smoke ") + WorkloadName(kind) +
                (trace ? " traced" : " untraced"));
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  opt.self = argv[0];
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest(argv[0]);
    if (arg == "--reference") {
      const size_t threads =
          i + 1 < argc ? std::strtoull(argv[i + 1], nullptr, 10) : 1;
      std::printf("%.0f\n", ReferenceKernelNs(threads));
      return 0;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      std::optional<WorkloadKind> kind = ParseWorkload(value);
      if (!kind) {
        std::cerr << "unknown workload '" << value << "'\n";
        return Usage();
      }
      opt.kind = *kind;
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (arg == "--trace") {
      opt.trace = value != "0";
    } else if (arg == "--workdir") {
      opt.workdir = value;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || opt.seconds <= 0) return Usage();
  RunReport report = RunBenchmark(opt);
  PrintSummary(opt, report);
  PrintReport(report);
  return report.correct ? 0 : 1;
}
