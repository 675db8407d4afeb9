// E7 — §5's headline claim: LyriC evaluation has PTIME data complexity.
//
// A fixed query is evaluated over office databases with N placed desks
// (the query text never changes; only the data grows). Expected shape:
// time grows polynomially — near-linearly for the single-variable
// filter query, quadratically for the pair (self-join) query — and never
// exponentially in N.

#include <benchmark/benchmark.h>

#include "office/office_db.h"
#include "query/evaluator.h"

namespace lyric {
namespace {

Database MakeDb(int desks) {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  (void)ids;
  auto st = office::AddScaledDesks(&db, desks, /*seed=*/77);
  (void)st;
  return db;
}

void BM_FilterQueryByDbSize(benchmark::State& state) {
  Database db = MakeDb(static_cast<int>(state.range(0)));
  const char* q =
      "SELECT O FROM Object_in_Room O "
      "WHERE O.location[L] and SAT(L(x, y) and 0 <= x and x <= 10 and "
      "0 <= y and y <= 5)";
  size_t rows = 0;
  for (auto _ : state) {
    Evaluator ev(&db);
    auto r = ev.Execute(q);
    benchmark::DoNotOptimize(r);
    rows = r.value().size();
  }
  state.counters["objects"] = static_cast<double>(state.range(0) + 1);
  state.counters["rows"] = static_cast<double>(rows);
}
BENCHMARK(BM_FilterQueryByDbSize)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_ConstructQueryByDbSize(benchmark::State& state) {
  Database db = MakeDb(static_cast<int>(state.range(0)));
  // The §4.1 global-extent construction per room object.
  const char* q =
      "SELECT O, ((u, v) | E(w, z) and D(w, z, x, y, u, v) and L(x, y)) "
      "FROM Object_in_Room O, Office_Object CO "
      "WHERE O.catalog_object[CO] and O.location[L] and "
      "CO.extent[E] and CO.translation[D]";
  for (auto _ : state) {
    Evaluator ev(&db);
    auto r = ev.Execute(q);
    benchmark::DoNotOptimize(r);
  }
  state.counters["objects"] = static_cast<double>(state.range(0) + 1);
}
BENCHMARK(BM_ConstructQueryByDbSize)->Arg(4)->Arg(16)->Arg(64);

void BM_PairQueryByDbSize(benchmark::State& state) {
  Database db = MakeDb(static_cast<int>(state.range(0)));
  // Overlapping pairs: a quadratic join, still PTIME.
  const char* q =
      "SELECT O1, O2 "
      "FROM Object_in_Room O1, Object_in_Room O2 "
      "WHERE O1.location[L1] and O1.catalog_object.extent[E1] and "
      "O1.catalog_object.translation[D1] and "
      "O2.location[L2] and O2.catalog_object.extent[E2] and "
      "O2.catalog_object.translation[D2] and "
      "not O1.inv_number = O2.inv_number and "
      "SAT( ((u, v) | E1(w, z) and D1(w, z, x, y, u, v) and L1(x, y)) and "
      "((u, v) | E2(w2, z2) and D2(w2, z2, x2, y2, u, v) and L2(x2, y2)) )";
  for (auto _ : state) {
    Evaluator ev(&db);
    auto r = ev.Execute(q);
    benchmark::DoNotOptimize(r);
  }
  state.counters["objects"] = static_cast<double>(state.range(0) + 1);
}
BENCHMARK(BM_PairQueryByDbSize)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

}  // namespace
}  // namespace lyric
