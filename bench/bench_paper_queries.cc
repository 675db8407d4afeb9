// E2 — the §4.1 worked queries on the Figure 2 database, timed.
//
// These are the paper's own demonstrations; the bench fixes their cost on
// the reference instance so regressions in the evaluator, the constraint
// engine, or canonicalization show up immediately.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "constraint/solver_cache.h"
#include "office/office_db.h"
#include "query/evaluator.h"

namespace lyric {
namespace {

struct NamedQuery {
  const char* name;
  const char* text;
};

const NamedQuery kQueries[] = {
    {"Q1_drawer_extent", "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]"},
    {"Q2_global_extent",
     "SELECT CO, ((u, v) | E and D and x = 6 and y = 4) "
     "FROM Office_Object CO WHERE CO.extent[E] and CO.translation[D]"},
    {"Q3_drawer_area",
     "SELECT O, ((u, v) | D(w, z, x, y, u, v) and "
     "DD(w1, z1, x1, y1, u1, v1) and w = u1 and z = v1 and "
     "DC(p, q) and DE(w1, z1) and L(x, y)) "
     "FROM Object_in_Room O, Desk DSK "
     "WHERE O.location[L] and O.catalog_object[DSK] and "
     "DSK.translation[D] and DSK.drawer_center[DC] and "
     "DSK.drawer.translation[DD] and DSK.drawer.extent[DE]"},
    {"Q4_centered_drawer",
     "SELECT DSK FROM Desk DSK WHERE DSK.color = 'red' and "
     "DSK.drawer_center[C] and C(p, q) |= p = 0"},
    {"Q5_walls_entailment",
     "SELECT DSK FROM Object_in_Room O, Desk DSK "
     "WHERE O.catalog_object[DSK] and O.location[L] and "
     "DSK.translation[D] and DSK.drawer_center[DC] and "
     "DSK.drawer.extent[DE] and DSK.drawer.translation[DD] and "
     "((u, v) | D(w, z, x, y, u, v) and DD(w1, z1, x1, y1, u1, v1) and "
     "w = u1 and z = v1 and DC(p, q) and DE(w1, z1) and L(x, y)) "
     "|= ((u, v) | 0 < u and u < 20 and 0 < v and v < 10)"},
    {"Q6_max_subject_to",
     "SELECT MAX(w + z SUBJECT TO ((w, z) | E)) "
     "FROM Desk X WHERE X.extent[E]"},
};

void BM_PaperQuery(benchmark::State& state) {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  (void)ids;
  const NamedQuery& q = kQueries[state.range(0)];
  state.SetLabel(q.name);
  for (auto _ : state) {
    Evaluator ev(&db);
    auto r = ev.Execute(q.text);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_PaperQuery)->DenseRange(0, 5);

// The Q5-style entailment filter over a database scaled to 48 extra
// desks; `cache_hit_rate` shows how much of the solver work the memo
// cache absorbed.
void BM_ScaledEntailmentFilter(benchmark::State& state) {
  Database db;
  (void)office::BuildOfficeDatabase(&db);
  (void)office::AddScaledDesks(&db, 48, /*seed=*/77);
  const char* q =
      "SELECT O FROM Object_in_Room O "
      "WHERE O.location[L] and "
      "L(x, y) |= (0 < x and x < 20 and 0 < y and y < 10)";
  SolverCache::Global().Clear();
  SolverCache::Stats before = SolverCache::Global().stats();
  {
    bench::CounterDeltas deltas(state);
    for (auto _ : state) {
      Evaluator ev(&db);
      auto r = ev.Execute(q);
      benchmark::DoNotOptimize(r);
    }
  }
  SolverCache::Stats after = SolverCache::Global().stats();
  uint64_t hits = after.hits - before.hits;
  uint64_t misses = after.misses - before.misses;
  state.counters["cache_hit_rate"] =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
}
BENCHMARK(BM_ScaledEntailmentFilter)->UseRealTime();

// The same query with the resource governor armed at generous limits
// (nothing trips; every cancellation checkpoint and accounting hook
// runs). Wall time here vs BM_ScaledEntailmentFilter is the governor
// overhead, so a creeping checkpoint cost is visible run over run.
void BM_ScaledEntailmentFilterGoverned(benchmark::State& state) {
  Database db;
  (void)office::BuildOfficeDatabase(&db);
  (void)office::AddScaledDesks(&db, 48, /*seed=*/77);
  const char* q =
      "SELECT O FROM Object_in_Room O "
      "WHERE O.location[L] and "
      "L(x, y) |= (0 < x and x < 20 and 0 < y and y < 10)";
  SolverCache::Global().Clear();
  uint64_t trips = 0;
  for (auto _ : state) {
    EvalOptions opts;
    opts.deadline_ms = 600'000;
    opts.memory_budget = 1ull << 40;
    opts.max_pivots = 1ull << 40;
    opts.max_disjuncts = 1ull << 40;
    Evaluator ev(&db, opts);
    auto r = ev.Execute(q);
    benchmark::DoNotOptimize(r);
    if (r.ok() && !r->governor_status().ok()) ++trips;
  }
  // Any trip at these limits is a governor bug; surface it in the output.
  state.counters["governor_trips"] = static_cast<double>(trips);
}
BENCHMARK(BM_ScaledEntailmentFilterGoverned)->UseRealTime();

}  // namespace
}  // namespace lyric
