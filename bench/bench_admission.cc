// Admission-control overhead benchmarks.
//
// The QueryScheduler's promise is that an unconfigured process pays one
// mutex acquisition per query and nothing else. These benchmarks price
// that promise — the free-admission fast path, the full
// admit/reserve/release cycle with limits armed, and a contended
// multi-producer storm through a capped scheduler — and price the
// evaluator end to end with and without admission limits so the per-query
// overhead is visible next to real query cost.

#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "bench_common.h"
#include "exec/scheduler.h"
#include "office/office_db.h"
#include "query/evaluator.h"

namespace lyric {
namespace {

// Uncontended Admit/Release with no limits configured: the do-nothing
// fast path every query pays once.
void BM_AdmitUnlimited(benchmark::State& state) {
  exec::QueryScheduler sched;
  for (auto _ : state) {
    auto ticket = sched.Admit(exec::AdmissionRequest{});
    benchmark::DoNotOptimize(ticket);
  }
}
BENCHMARK(BM_AdmitUnlimited);

// Uncontended Admit/Release with every limit armed: ledger reserve,
// pressure check, and EWMA update on release.
void BM_AdmitWithLimits(benchmark::State& state) {
  exec::SchedulerLimits limits;
  limits.max_concurrent = 64;
  limits.queue_capacity = 16;
  limits.max_total_memory = 1ull << 30;
  exec::QueryScheduler sched(limits);
  exec::AdmissionRequest request;
  request.deadline_ms = 60000;
  request.memory_budget = 1 << 20;
  for (auto _ : state) {
    auto ticket = sched.Admit(request);
    benchmark::DoNotOptimize(ticket);
  }
}
BENCHMARK(BM_AdmitWithLimits);

// Contended storm: `threads` producers pump admissions through a 2-lane
// scheduler with a deep queue (no shedding, so every admission completes
// and the measured rate is queue+grant throughput).
void BM_AdmitContended(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  exec::SchedulerLimits limits;
  limits.max_concurrent = 2;
  limits.queue_capacity = 1024;
  exec::QueryScheduler sched(limits);
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&sched] {
        for (int i = 0; i < 64; ++i) {
          auto ticket = sched.Admit(exec::AdmissionRequest{});
          benchmark::DoNotOptimize(ticket);
        }
      });
    }
    for (auto& w : workers) w.join();
  }
  state.SetItemsProcessed(state.iterations() * threads * 64);
}
BENCHMARK(BM_AdmitContended)->Arg(2)->Arg(4)->Arg(8);

// End-to-end evaluator cost, unscheduled vs under a (non-binding)
// concurrency cap: the delta is the whole admission tax on a real query.
void RunPaperQuery(benchmark::State& state, bool capped) {
  Database db;
  if (!office::BuildOfficeDatabase(&db).ok()) {
    state.SkipWithError("office db failed");
    return;
  }
  exec::SchedulerLimits limits;
  if (capped) limits.max_concurrent = 4;
  exec::QueryScheduler sched(limits);
  EvalOptions opts;
  opts.scheduler = &sched;
  Evaluator ev(&db, opts);
  const char* kQuery = "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]";
  bench::CounterDeltas deltas(state);
  for (auto _ : state) {
    auto r = ev.Execute(kQuery);
    if (!r.ok()) {
      state.SkipWithError("query failed");
      return;
    }
    benchmark::DoNotOptimize(r);
  }
}
void BM_PaperQueryUnscheduled(benchmark::State& state) {
  RunPaperQuery(state, false);
}
BENCHMARK(BM_PaperQueryUnscheduled);
void BM_PaperQueryAdmissionCapped(benchmark::State& state) {
  RunPaperQuery(state, true);
}
BENCHMARK(BM_PaperQueryAdmissionCapped);

}  // namespace
}  // namespace lyric
