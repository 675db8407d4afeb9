// Persistence costs. Part one: Serializer dump/load scales linearly with
// the database; constraint bodies round-trip through canonical forms, so
// loading re-parses and re-interns each distinct constraint once. Part
// two: the paged engine (PagedStore) — commit latency is fsync-bound,
// checkpoint amortizes page writeback, recovery replays the WAL at
// sequential-read speed, and a CREATE VIEW write-through costs the same
// however many views came before it.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "office/office_db.h"
#include "query/evaluator.h"
#include "storage/paged_store.h"
#include "storage/serializer.h"

namespace lyric {
namespace {

Database MakeDb(int desks) {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  (void)ids;
  // Per-desk catalogs maximize distinct constraint objects.
  auto st = office::AddScaledDesks(&db, desks, /*seed=*/3,
                                   /*share_catalog=*/false);
  (void)st;
  return db;
}

void BM_DumpDatabase(benchmark::State& state) {
  Database db = MakeDb(static_cast<int>(state.range(0)));
  size_t bytes = 0;
  for (auto _ : state) {
    auto text = Serializer::DumpDatabase(db);
    benchmark::DoNotOptimize(text);
    bytes = text.value().size();
  }
  state.counters["objects"] = static_cast<double>(db.ObjectCount());
  state.counters["bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_DumpDatabase)->Arg(4)->Arg(16)->Arg(64);

void BM_LoadDatabase(benchmark::State& state) {
  Database db = MakeDb(static_cast<int>(state.range(0)));
  std::string text = Serializer::DumpDatabase(db).value();
  for (auto _ : state) {
    Database loaded;
    auto st = Serializer::LoadDatabase(text, &loaded);
    benchmark::DoNotOptimize(st);
  }
  state.counters["objects"] = static_cast<double>(db.ObjectCount());
  state.counters["bytes"] = static_cast<double>(text.size());
}
// The large points show whether loading stays linear in the dump.
BENCHMARK(BM_LoadDatabase)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_RoundTrip(benchmark::State& state) {
  Database db = MakeDb(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::string text = Serializer::DumpDatabase(db).value();
    Database loaded;
    auto st = Serializer::LoadDatabase(text, &loaded);
    benchmark::DoNotOptimize(st);
  }
  state.counters["objects"] = static_cast<double>(db.ObjectCount());
}
BENCHMARK(BM_RoundTrip)->Arg(16);

// -- paged engine ----------------------------------------------------------

std::string BenchStorePath() {
  return "/tmp/lyric_bench_store_" + std::to_string(::getpid()) + ".lyricpg";
}

void RemoveStoreFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove(storage::PagedStore::WalPathFor(path).c_str());
}

std::string BenchValue(int i) {
  // ~120 bytes: the order of magnitude of one serialized attribute line.
  std::string v = "value-" + std::to_string(i) + "-";
  v.resize(120, 'x');
  return v;
}

/// One Put + one durable Commit per iteration — the engine's fsync-bound
/// floor. `sync` toggles the WAL fsync so the bench separates the log
/// append cost from the durability cost.
void BM_PagedCommit(benchmark::State& state) {
  const bool sync = state.range(0) != 0;
  const std::string path = BenchStorePath();
  RemoveStoreFiles(path);
  storage::StoreOptions opts;
  opts.path = path;
  opts.sync_commits = sync;
  auto store = storage::PagedStore::Open(opts).value();
  int i = 0;
  bench::CounterDeltas deltas(state);
  for (auto _ : state) {
    auto st = store->Put("key" + std::to_string(i % 512), BenchValue(i));
    if (st.ok()) st = store->Commit();
    if (!st.ok()) state.SkipWithError(st.message().c_str());
    ++i;
  }
  state.SetLabel(sync ? "fsync per commit" : "no fsync (unsafe)");
  (void)store->Close();
  RemoveStoreFiles(path);
}
BENCHMARK(BM_PagedCommit)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

/// `range` Puts batched under one commit: group-commit amortization of
/// the same fsync across a transaction.
void BM_PagedBatchCommit(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const std::string path = BenchStorePath();
  RemoveStoreFiles(path);
  storage::StoreOptions opts;
  opts.path = path;
  auto store = storage::PagedStore::Open(opts).value();
  int i = 0;
  for (auto _ : state) {
    for (int j = 0; j < batch; ++j, ++i) {
      auto st = store->Put("key" + std::to_string(i % 4096), BenchValue(i));
      if (!st.ok()) state.SkipWithError(st.message().c_str());
    }
    auto st = store->Commit();
    if (!st.ok()) state.SkipWithError(st.message().c_str());
  }
  state.counters["puts_per_commit"] = static_cast<double>(batch);
  state.SetItemsProcessed(state.iterations() * batch);
  (void)store->Close();
  RemoveStoreFiles(path);
}
BENCHMARK(BM_PagedBatchCommit)->Arg(1)->Arg(16)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

/// `range` Puts of 300 B in one transaction on a 16-page pool, then its
/// commit. Every frame the transaction dirties stays unlogged until the
/// commit, so the pool overflows; an insertion that rescanned the whole
/// frame table for a victim each time made this quadratic. The
/// ImportDatabase of a large dump (lyric_serverd --store --load) is one
/// such transaction. Reported per Put: us_per_put.
void BM_PagedLargeTransaction(benchmark::State& state) {
  const int puts = static_cast<int>(state.range(0));
  const std::string path = BenchStorePath();
  const std::string value(300, 'v');
  std::chrono::duration<double, std::micro> timed{0};
  for (auto _ : state) {
    state.PauseTiming();
    RemoveStoreFiles(path);
    storage::StoreOptions opts;
    opts.path = path;
    opts.pool_pages = 16;
    auto store = storage::PagedStore::Open(opts).value();
    state.ResumeTiming();
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < puts; ++i) {
      auto st = store->Put("k" + std::to_string(1000000 + i), value);
      if (!st.ok()) state.SkipWithError(st.message().c_str());
    }
    auto st = store->Commit();
    if (!st.ok()) state.SkipWithError(st.message().c_str());
    timed += std::chrono::steady_clock::now() - start;
    state.PauseTiming();
    (void)store->Close();
    state.ResumeTiming();
  }
  state.counters["us_per_put"] =
      timed.count() / (static_cast<double>(state.iterations()) * puts);
  RemoveStoreFiles(path);
}
BENCHMARK(BM_PagedLargeTransaction)->Arg(20000)->Arg(80000)
    ->Unit(benchmark::kMillisecond);

/// Full-store in-order scan over `range` records.
void BM_PagedScan(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::string path = BenchStorePath();
  RemoveStoreFiles(path);
  storage::StoreOptions opts;
  opts.path = path;
  auto store = storage::PagedStore::Open(opts).value();
  for (int i = 0; i < n; ++i) {
    (void)store->Put("key" + std::to_string(100000 + i), BenchValue(i));
  }
  (void)store->Checkpoint();
  for (auto _ : state) {
    size_t rows = 0;
    auto st = store->Scan("", [&](std::string_view, std::string_view) {
      ++rows;
      return Result<bool>(true);
    });
    if (!st.ok() || rows != static_cast<size_t>(n)) {
      state.SkipWithError("scan failed");
    }
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(state.iterations() * n);
  (void)store->Close();
  RemoveStoreFiles(path);
}
BENCHMARK(BM_PagedScan)->Arg(256)->Arg(2048)->Unit(benchmark::kMicrosecond);

/// Open with `range` committed-but-not-checkpointed transactions in the
/// WAL: the redo-recovery path a crash would take.
void BM_PagedRecovery(benchmark::State& state) {
  const int txns = static_cast<int>(state.range(0));
  const std::string path = BenchStorePath();
  for (auto _ : state) {
    state.PauseTiming();
    RemoveStoreFiles(path);
    {
      storage::StoreOptions opts;
      opts.path = path;
      auto store = storage::PagedStore::Open(opts).value();
      for (int t = 0; t < txns; ++t) {
        for (int j = 0; j < 8; ++j) {
          (void)store->Put("key" + std::to_string((t * 3 + j) % 64),
                           BenchValue(t));
        }
        (void)store->Commit();
      }
      // No Close/Checkpoint: drop the store with the WAL full, exactly
      // the on-disk state a kill -9 after the last commit leaves.
    }
    state.ResumeTiming();
    storage::StoreOptions opts;
    opts.path = path;
    auto reopened = storage::PagedStore::Open(opts).value();
    benchmark::DoNotOptimize(reopened->recovery().committed_txns);
    state.PauseTiming();
    (void)reopened->Close();
    state.ResumeTiming();
  }
  state.counters["wal_txns"] = static_cast<double>(txns);
  RemoveStoreFiles(path);
}
BENCHMARK(BM_PagedRecovery)->Arg(8)->Arg(64)->Unit(benchmark::kMicrosecond);

/// Import the scaled office database into an empty store + Checkpoint —
/// the `.open` seeding path in lyric_shell.
void BM_PagedImportOffice(benchmark::State& state) {
  Database db = MakeDb(static_cast<int>(state.range(0)));
  const std::string path = BenchStorePath();
  for (auto _ : state) {
    state.PauseTiming();
    RemoveStoreFiles(path);
    storage::StoreOptions opts;
    opts.path = path;
    auto store = storage::PagedStore::Open(opts).value();
    state.ResumeTiming();
    auto st = store->ImportDatabase(db);
    if (st.ok()) st = store->Checkpoint();
    if (!st.ok()) state.SkipWithError(st.message().c_str());
    state.PauseTiming();
    (void)store->Close();
    state.ResumeTiming();
  }
  state.counters["objects"] = static_cast<double>(db.ObjectCount());
  RemoveStoreFiles(path);
}
BENCHMARK(BM_PagedImportOffice)->Arg(4)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

/// One served CREATE VIEW, end to end below the wire: evaluate the view
/// over the durable_mixed database (Figure 2 plus 12 desks on a shared
/// catalog), install it, append its change set to the store and wait for
/// the fsync — what lyric_serverd does across one write. `range` views
/// were written through before timing starts; the cost per write should
/// not depend on it.
void BM_PagedCreateView(benchmark::State& state) {
  const int prior = static_cast<int>(state.range(0));
  Database db;
  Status st = office::BuildOfficeDatabase(&db).status();
  if (st.ok()) st = office::AddScaledDesks(&db, 12, /*seed=*/7);
  const std::string path = BenchStorePath();
  RemoveStoreFiles(path);
  int views = 0;
  auto create_view = [&](storage::PagedStore* store) {
    // Boxes 10 x 8 wide at shifting corners of the 20 x 10 room, so most
    // views hold several of the 13 room objects.
    const int x0 = (views * 7) % 14 - 2;
    const int y0 = (views * 3) % 6 - 2;
    const std::string text =
        "CREATE VIEW Bench_View_" + std::to_string(views++) +
        " AS SUBCLASS OF Object_in_Room SELECT O FROM Object_in_Room O "
        "WHERE O.location[L] and L(x, y) |= (" + std::to_string(x0) +
        " <= x and x <= " + std::to_string(x0 + 10) + " and " +
        std::to_string(y0) + " <= y and y <= " + std::to_string(y0 + 8) +
        ")";
    Evaluator ev(&db, EvalOptions{});
    Status s = ev.Execute(text).status();
    if (!s.ok()) return s;
    Result<uint64_t> lsn = store->ApplyChanges(db, db.TakeChanges());
    return lsn.ok() ? store->WaitDurable(*lsn) : lsn.status();
  };
  {
    // The prior views, written through without fsync to keep set-up short.
    storage::StoreOptions opts;
    opts.path = path;
    opts.sync_commits = false;
    auto store = storage::PagedStore::Open(opts);
    if (st.ok()) st = store.status();
    if (st.ok()) st = (*store)->ImportDatabase(db);
    for (int i = 0; st.ok() && i < prior; ++i) st = create_view(store->get());
    if (st.ok()) st = (*store)->Close();
  }
  storage::StoreOptions opts;
  opts.path = path;
  auto store = storage::PagedStore::Open(opts);
  if (st.ok()) st = store.status();
  if (!st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  obs::Counter& images =
      obs::Registry::Global().GetCounter("storage.wal.page_images");
  obs::Counter& bytes =
      obs::Registry::Global().GetCounter("storage.io.bytes_written");
  const uint64_t images_before = images.value();
  const uint64_t bytes_before = bytes.value();
  for (auto _ : state) {
    Status s = create_view(store->get());
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
  }
  const double writes = static_cast<double>(state.iterations());
  state.counters["prior_views"] = static_cast<double>(prior);
  state.counters["page_images_per_write"] =
      static_cast<double>(images.value() - images_before) / writes;
  state.counters["bytes_per_write"] =
      static_cast<double>(bytes.value() - bytes_before) / writes;
  (void)(*store)->Close();
  RemoveStoreFiles(path);
}
BENCHMARK(BM_PagedCreateView)->Arg(0)->Arg(100)->Arg(1000)->Iterations(100)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lyric
