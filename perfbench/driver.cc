#include "driver.h"

#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "constraint/solver_cache.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "query/evaluator.h"
#include "storage/paged_store.h"
#include "storage/serializer.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using lyric::Database;
using lyric::EvalOptions;
using lyric::Evaluator;
using lyric::Result;
using lyric::ResultSet;
using lyric::SolverCache;
using lyric::Status;
using lyric::net::Client;
using lyric::net::QueryResponse;
using lyric::obs::MetricsSnapshot;
using lyric::storage::PagedStore;

/// Closed-loop clients of the served workloads, one connection each.
constexpr size_t kClients = 4;
/// Warm-up passes each client makes over the served read mix.
constexpr int kWarmupPasses = 5;
/// Warm-up queries before each solver_cold chunk (never measured).
constexpr int kColdWarmupOps = 3;
/// Reads per round replayed in-process with collect_trace for the stage
/// split of the served workloads (the wire response carries no profile).
constexpr uint64_t kStageReplayReads = 300;
/// Self-checks: each workload must keep exercising the layer it is for.
constexpr double kWarmMinHitRatio = 0.9;
constexpr double kColdMaxHitRatio = 0.5;
/// A run counts at least this many rounds (solver_cold: passes).
/// peak_rss_mb is read after this many, a fixed amount of work, so that
/// a faster program (more rounds per run) does not read as bigger.
constexpr int kMinRounds = 3;
/// The speed of the shared host's vCPUs drifts with its neighbours'
/// load, by a third and more, in spells that can outlast a run. So the
/// run times a fixed reference kernel (ReferenceKernelNs) in a child
/// process about every kReferenceEveryNs, between rounds (chunks), and
/// reports every time scaled by kReferenceNs / (the kernel's median over
/// the run): as on a host where the kernel takes kReferenceNs, about this
/// one's speed when quiet. solver_cold's single caller is pinned to one
/// CPU, and the kernel runs on that CPU in one thread; the served
/// workloads spread over all CPUs, and the kernel runs in kClients
/// threads at once.
constexpr double kReferenceNs = 12e6;
constexpr int64_t kReferenceEveryNs = 1'000'000'000;
/// solver_cold runs a fixed set of distinct queries, so that p99 has ten
/// samples beyond it, in chunks of kColdChunkOps on fresh state. Every
/// pass replays all chunks; a query's latency (and a chunk's wall time)
/// is its median over the passes.
constexpr uint64_t kColdOps = 1000;
constexpr uint64_t kColdChunkOps = 100;
/// Op-index offsets: served rounds replay [0, RoundOps); warm-up and
/// stage replay draw from ranges no measured operation uses.
constexpr uint64_t kReplayOffset = uint64_t{1} << 31;
constexpr uint64_t kWarmupBase = uint64_t{1} << 62;

/// Operations per served round. Every round replays the same operations
/// on fresh state, so its work (and the schema growth of durable_mixed)
/// does not depend on how fast the program is.
uint64_t RoundOps(WorkloadKind kind) {
  return kind == WorkloadKind::kOfficeWarm ? 5000 : 2000;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One benchmark span around a call into a layer; spans of one
/// operation share its op index as `request`.
struct SpanRecord {
  const char* name;
  uint64_t request;
  int64_t start_ns;
  int64_t end_ns;
};
/// Spans recorded by one thread, in order.
using SpanLane = std::vector<SpanRecord>;

/// What a measured phase observed, in wall-clock time.
struct PhaseStats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t rows = 0;
  uint64_t response_bytes = 0;
  std::vector<double> read_ns;
  std::vector<double> write_ns;
  double wall_s = 0;
  /// Acknowledged CREATE VIEWs: class name and acknowledged row count.
  std::vector<std::pair<std::string, uint64_t>> acked_views;
  std::map<std::string, uint64_t> failures;  // by kind

  void Fail(const std::string& kind) {
    ++failed;
    ++failures[kind];
  }
  void Merge(PhaseStats&& o) {
    attempted += o.attempted;
    failed += o.failed;
    reads += o.reads;
    writes += o.writes;
    rows += o.rows;
    response_bytes += o.response_bytes;
    read_ns.insert(read_ns.end(), o.read_ns.begin(), o.read_ns.end());
    write_ns.insert(write_ns.end(), o.write_ns.begin(), o.write_ns.end());
    wall_s += o.wall_s;
    for (auto& view : o.acked_views) acked_views.push_back(std::move(view));
    for (const auto& [kind, n] : o.failures) failures[kind] += n;
  }
};

/// Sums registry deltas of several phases into one.
void Accumulate(MetricsSnapshot* acc, const MetricsSnapshot& delta) {
  for (const auto& [name, v] : delta.counters) acc->counters[name] += v;
  for (const auto& [name, h] : delta.histograms) {
    MetricsSnapshot::HistogramStats& a = acc->histograms[name];
    a.count += h.count;
    a.sum += h.sum;
    a.max = std::max(a.max, h.max);
    std::map<uint32_t, uint64_t> merged(a.buckets.begin(), a.buckets.end());
    for (const auto& [bucket, n] : h.buckets) merged[bucket] += n;
    a.buckets.assign(merged.begin(), merged.end());
  }
}

uint64_t CounterOf(const MetricsSnapshot& s, const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

const MetricsSnapshot::HistogramStats& HistogramOf(const MetricsSnapshot& s,
                                                   const std::string& name) {
  static const MetricsSnapshot::HistogramStats kEmpty;
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? kEmpty : it->second;
}

MetricsSnapshot RegistryNow() {
  return lyric::obs::Registry::Global().Snapshot();
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile, q in (0, 1]. 0 for no samples.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

/// Pins the calling thread to the CPU it runs on and stores its previous
/// mask in `*old`. False when that is not possible.
bool PinToCurrentCpu(cpu_set_t* old) {
  const int cpu = sched_getcpu();
  if (cpu < 0 || sched_getaffinity(0, sizeof(*old), old) != 0) return false;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0;
}

/// Times the reference kernel, in `threads` threads at once, in a child
/// process that runs `self` (this executable) with --reference, so that
/// the kernel shares no heap, threads or allocator state with the engine.
/// 0 when the child fails.
double SpawnReferenceNs(const std::string& self, size_t threads) {
  int out[2];
  if (pipe2(out, O_CLOEXEC) != 0) return 0;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  std::string arg0 = self, arg1 = "--reference";
  std::string arg2 = std::to_string(threads);
  char* argv[] = {arg0.data(), arg1.data(), arg2.data(), nullptr};
  pid_t pid = 0;
  const int rc =
      posix_spawnp(&pid, self.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  std::string text;
  char buf[64];
  for (ssize_t n; rc == 0 && (n = read(out[0], buf, sizeof(buf))) > 0;) {
    text.append(buf, static_cast<size_t>(n));
  }
  close(out[0]);
  if (rc != 0) return 0;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return 0;
  }
  return std::atof(text.c_str());
}

/// Self time per stage name ("where[3]" counts as "where"), summed over
/// the QueryProfile span trees of many queries.
struct StageTotals {
  std::map<std::string, uint64_t> self_ns;
  uint64_t queries = 0;

  void AddQuery(const lyric::obs::QueryProfile& profile) {
    ++queries;
    AddNode(profile.trace.root());
  }
  void AddNode(const lyric::obs::SpanNode& node) {
    uint64_t children = 0;
    for (const auto& child : node.children) {
      children += child->dur_ns;
      AddNode(*child);
    }
    self_ns[node.name.substr(0, node.name.find('['))] +=
        node.dur_ns > children ? node.dur_ns - children : 0;
  }
};

std::string Fingerprint(const Result<ResultSet>& result) {
  return lyric::net::ResponseFromResult(result).Fingerprint();
}

/// Serial in-process evaluation with default options: the oracle every
/// answer is checked against.
std::string Expected(Database* db, const std::string& text) {
  Evaluator ev(db, EvalOptions{});
  return Fingerprint(ev.Execute(text));
}

/// The value at `key`, or "" (which no fingerprint equals). Read-only,
/// so client threads may share the map.
template <typename Map, typename Key>
const std::string& Lookup(const Map& map, const Key& key) {
  static const std::string kNone;
  auto it = map.find(key);
  return it == map.end() ? kNone : it->second;
}

/// Everything a run accumulates across its rounds.
class Run {
 public:
  explicit Run(const RunOptions& opt)
      : opt_(opt), round_ops_(RoundOps(opt.kind)) {}

  RunReport Execute();

 private:
  bool served() const { return opt_.kind != WorkloadKind::kSolverCold; }
  bool durable() const { return opt_.kind == WorkloadKind::kDurableMixed; }
  /// Records a problem; false, so that a failed step can `return Problem(...)`.
  bool Problem(std::string what) {
    problems_.push_back(std::move(what));
    return false;
  }

  /// One round of a served workload, or one pass over every solver_cold
  /// chunk. False when its set-up failed.
  bool ServedRound();
  bool ColdPass(int pass);
  /// The expected answers every round is checked against, computed once
  /// per run on replicas before anything is measured.
  bool ServedOracle();
  bool ColdOracle();

  /// Runs `count` operations from index `first` as a measured phase,
  /// timed as a whole, with registry snapshots around it.
  /// `body(first, count, stats)` executes the operations.
  template <typename Body>
  PhaseStats Measured(bool traced, uint64_t first, uint64_t count,
                      Body&& body);
  /// One closed-loop phase: kClients threads claim op indices first,
  /// first + 1, ... until `count` are claimed.
  void ServedPhase(std::vector<std::unique_ptr<Client>>& clients,
                   uint64_t first, uint64_t count, bool traced,
                   PhaseStats* stats);
  void Warmup(std::vector<std::unique_ptr<Client>>& clients);
  std::vector<std::unique_ptr<Client>> Connect(uint16_t port);
  /// Times the reference kernel (untraced runs only), when
  /// kReferenceEveryNs have passed since the last time or `force` is set.
  void Reference(bool force);
  /// Reopens the store after a durable round and checks every
  /// acknowledged view is there (acked => durable).
  void VerifyDurable(const std::string& path, const Database& live,
                     const std::vector<std::pair<std::string, uint64_t>>& acked);

  /// Adds a measured phase to the run totals.
  void Record(bool traced, PhaseStats phase);
  void SelfChecks();
  void EndToEndMetrics(RunReport* report) const;
  void PerLayerMetrics(RunReport* report) const;
  void WriteTrace() const;

  const RunOptions& opt_;
  const uint64_t round_ops_;
  /// Set-up times of every round (solver_cold: of every chunk).
  std::vector<double> setup_s_;
  /// Time spent in measured phases, as measured.
  double measured_s_ = 0;
  /// Every reference kernel time, and when the last one ended.
  std::vector<double> reference_ns_;
  int64_t last_reference_ns_ = 0;
  /// Served workloads: throughput and read percentiles of each round's
  /// untraced phase.
  std::vector<double> round_qps_;
  std::vector<double> round_p50_ns_;
  std::vector<double> round_p99_ns_;
  uint64_t min_round_reads_ = 0;
  /// solver_cold: untraced latencies of each query, and untraced wall
  /// times of each chunk, one per pass.
  std::vector<std::vector<double>> op_ns_;
  std::vector<std::vector<double>> chunk_s_;
  PhaseStats untraced_;
  PhaseStats traced_;
  MetricsSnapshot untraced_reg_;
  MetricsSnapshot traced_reg_;
  MetricsSnapshot recovery_reg_;
  StageTotals stages_;
  std::vector<SpanLane> lanes_;
  double peak_rss_mb_ = 0;
  uint64_t durability_checked_ = 0;
  uint64_t durability_missing_ = 0;
  std::vector<std::string> problems_;

  // Expected fingerprints: of the served read mix and of the served
  // round's writes by op index, or of every solver_cold query.
  std::unordered_map<std::string, std::string> expected_reads_;
  std::unordered_map<uint64_t, std::string> expected_writes_;
  std::vector<std::string> expected_cold_;
};

template <typename Body>
PhaseStats Run::Measured(bool traced, uint64_t first, uint64_t count,
                         Body&& body) {
  const MetricsSnapshot before = RegistryNow();
  PhaseStats ps;
  const int64_t start = NowNs();
  body(first, count, &ps);
  ps.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  Accumulate(traced ? &traced_reg_ : &untraced_reg_,
             RegistryNow().DeltaSince(before));
  return ps;
}

std::vector<std::unique_ptr<Client>> Run::Connect(uint16_t port) {
  std::vector<std::unique_ptr<Client>> clients;
  for (size_t i = 0; i < kClients; ++i) {
    lyric::net::ClientOptions copt;
    copt.port = port;
    clients.push_back(std::make_unique<Client>(copt));
    Status st = clients.back()->Connect();
    if (!st.ok()) Problem("connect: " + st.ToString());
  }
  return clients;
}

void Run::Reference(bool force) {
  if (opt_.trace) return;
  if (!force && !reference_ns_.empty() &&
      NowNs() - last_reference_ns_ < kReferenceEveryNs) {
    return;
  }
  const double ns = SpawnReferenceNs(opt_.self, served() ? kClients : 1);
  if (ns > 0) reference_ns_.push_back(ns);
  last_reference_ns_ = NowNs();
}

void Run::Warmup(std::vector<std::unique_ptr<Client>>& clients) {
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> threads;
  for (auto& client : clients) {
    threads.emplace_back([&, c = client.get()] {
      for (int pass = 0; pass < kWarmupPasses; ++pass) {
        for (const std::string& text : ServedReadMix()) {
          Result<QueryResponse> resp = c->Execute(text);
          if (!resp.ok() ||
              resp->Fingerprint() != Lookup(expected_reads_, text)) {
            ++bad;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (bad > 0) Problem("warm-up: " + std::to_string(bad.load()) + " bad answers");
}

void Run::ServedPhase(std::vector<std::unique_ptr<Client>>& clients,
                      uint64_t first, uint64_t count, bool traced,
                      PhaseStats* stats) {
  std::atomic<uint64_t> next{0};
  std::vector<PhaseStats> per_client(clients.size());
  std::vector<SpanLane> lanes(clients.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      Client& client = *clients[c];
      PhaseStats& ps = per_client[c];
      for (uint64_t k; (k = next.fetch_add(1)) < count;) {
        const uint64_t index = first + k;
        const Op op = MakeOp(opt_.kind, opt_.seed, index);
        ++ps.attempted;
        const int64_t t0 = NowNs();
        Result<QueryResponse> resp = client.Execute(op.text);
        const int64_t t1 = NowNs();
        if (traced) lanes[c].push_back({"net.client_execute", index, t0, t1});
        if (!resp.ok()) {
          ps.Fail("transport");
          continue;
        }
        if (!resp->status.ok()) {
          ps.Fail(resp->status.IsUnavailable() ? "shed" : "status");
          continue;
        }
        if (op.write) ps.acked_views.emplace_back(op.view_name, resp->row_count);
        // The check happens after t1, so it is outside the latency but
        // inside the phase's wall time (and so throughput_qps).
        if (resp->Fingerprint() != (op.write ? Lookup(expected_writes_, index)
                                             : Lookup(expected_reads_, op.text))) {
          ps.Fail("mismatch");
          continue;
        }
        const double latency = static_cast<double>(t1 - t0);
        (op.write ? ps.write_ns : ps.read_ns).push_back(latency);
        ++(op.write ? ps.writes : ps.reads);
        ps.rows += resp->row_count;
        if (traced) {
          ps.response_bytes += lyric::net::EncodeQueryResponse(*resp).size() +
                               lyric::net::kFrameHeaderBytes;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (PhaseStats& ps : per_client) stats->Merge(std::move(ps));
  for (SpanLane& lane : lanes) lanes_.push_back(std::move(lane));
}

void Run::VerifyDurable(
    const std::string& path, const Database& live,
    const std::vector<std::pair<std::string, uint64_t>>& acked) {
  durability_checked_ += acked.size();
  auto reopened = PagedStore::Open({.path = path});
  Database recovered;
  Status st = reopened.ok() ? (*reopened)->ExportToDatabase(&recovered)
                            : reopened.status();
  if (!st.ok()) {
    Problem("reopen after round: " + st.ToString());
    durability_missing_ += acked.size();
    return;
  }
  // A view over stored objects materializes as instance-of facts, and an
  // empty view creates no class, live or recovered.
  std::map<std::string, uint64_t> members;
  for (const auto& [oid, classes] : recovered.extra_instance_of()) {
    for (const std::string& cls : classes) ++members[cls];
  }
  for (const auto& [name, rows] : acked) {
    if (recovered.schema().HasClass(name) != (rows > 0) ||
        members[name] != rows) {
      ++durability_missing_;
    }
  }
  // And the recovered store dumps byte-identically to the served state.
  Result<std::string> want = lyric::Serializer::DumpDatabase(live);
  Result<std::string> got = lyric::Serializer::DumpDatabase(recovered);
  if (!want.ok() || !got.ok() || *want != *got) {
    Problem("recovered store differs from the served database");
  }
  (void)(*reopened)->Close();
}

bool Run::ServedOracle() {
  Database replica;
  Status st = BuildDatabase(opt_.kind, &replica);
  if (!st.ok()) return Problem("replica: " + st.ToString());
  for (const std::string& text : ServedReadMix()) {
    expected_reads_[text] = Expected(&replica, text);
  }
  for (uint64_t i = 0; durable() && i < round_ops_; ++i) {
    const Op op = MakeOp(opt_.kind, opt_.seed, i);
    if (op.write) expected_writes_[i] = Expected(&replica, op.text);
  }
  return true;
}

bool Run::ServedRound() {
  Reference(false);
  SolverCache::Global().Clear();

  // Timed set-up: build, or seed a store and recover it by WAL replay;
  // start the server, connect, warm up.
  SpanLane setup_lane;
  auto span = [&](const char* name, int64_t t0) {
    if (opt_.trace) setup_lane.push_back({name, 0, t0, NowNs()});
  };
  const int64_t setup_start = NowNs();
  Database db;
  std::unique_ptr<PagedStore> store;
  const fs::path dir =
      fs::path(opt_.workdir) / (std::string(WorkloadName(opt_.kind)) + "-" +
                                std::to_string(opt_.seed));
  const std::string serve_path = (dir / "serve.lyricpg").string();
  if (!durable()) {
    Status st = BuildDatabase(opt_.kind, &db);
    span("setup.build_db", setup_start);
    if (!st.ok()) return Problem("build: " + st.ToString());
  } else {
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    if (ec) return Problem("workdir " + dir.string() + ": " + ec.message());
    const std::string seed_path = (dir / "seed.lyricpg").string();
    {
      // Seed a fresh store: the import is committed to the WAL and not
      // yet checkpointed. A copy of both files taken now is what a crash
      // would leave behind, so opening the copy replays the WAL.
      Database seed_db;
      Status st = BuildDatabase(opt_.kind, &seed_db);
      const int64_t t = NowNs();
      auto seeded = PagedStore::Open({.path = seed_path});
      if (!seeded.ok()) return Problem("seed open: " + seeded.status().ToString());
      if (st.ok()) st = (*seeded)->ImportDatabase(seed_db);
      span("storage.import", t);
      if (!st.ok()) return Problem("seed import: " + st.ToString());
      fs::copy_file(seed_path, serve_path, ec);
      if (!ec) {
        fs::copy_file(PagedStore::WalPathFor(seed_path),
                      PagedStore::WalPathFor(serve_path), ec);
      }
      if (ec) return Problem("crash image: " + ec.message());
    }
    int64_t t = NowNs();
    const MetricsSnapshot before = RegistryNow();
    auto opened = PagedStore::Open({.path = serve_path});
    Accumulate(&recovery_reg_, RegistryNow().DeltaSince(before));
    span("storage.open_replay", t);
    if (!opened.ok()) return Problem("replay open: " + opened.status().ToString());
    store = std::move(*opened);
    if (store->recovery().committed_txns == 0) Problem("set-up replayed no WAL");
    t = NowNs();
    Status st = store->ExportToDatabase(&db);
    span("storage.export", t);
    if (!st.ok()) return Problem("hydrate: " + st.ToString());
  }
  lyric::net::ServerOptions server_options;
  server_options.store = store.get();
  auto server = std::make_unique<lyric::net::Server>(&db, server_options);
  int64_t t = NowNs();
  Status st = server->Start();
  span("net.server_start", t);
  if (!st.ok()) return Problem("server start: " + st.ToString());
  std::vector<std::unique_ptr<Client>> clients = Connect(server->port());
  t = NowNs();
  Warmup(clients);
  span("net.warmup", t);
  setup_s_.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);

  // Measured phases. A trace run halves the round: untraced, then traced
  // against a server restarted with collect_trace on.
  const uint64_t phase_ops = opt_.trace ? round_ops_ / 2 : round_ops_;
  auto phase = [&](bool traced) {
    return [&, traced](uint64_t first, uint64_t n, PhaseStats* ps) {
      ServedPhase(clients, first, n, traced, ps);
    };
  };
  PhaseStats untraced = Measured(false, 0, phase_ops, phase(false));
  PhaseStats traced;
  if (opt_.trace) {
    clients.clear();
    server->Stop();
    server_options.eval.collect_trace = true;
    server = std::make_unique<lyric::net::Server>(&db, server_options);
    st = server->Start();
    if (!st.ok()) return Problem("traced server start: " + st.ToString());
    clients = Connect(server->port());
    traced = Measured(true, phase_ops, phase_ops, phase(true));
    // Stage split: reads of the same mix, in-process on the same warm
    // database.
    EvalOptions traced_eval;
    traced_eval.collect_trace = true;
    uint64_t replayed = 0;
    for (uint64_t i = kReplayOffset; replayed < kStageReplayReads; ++i) {
      const Op op = MakeOp(opt_.kind, opt_.seed, i);
      if (op.write) continue;
      ++replayed;
      Evaluator ev(&db, traced_eval);
      Result<ResultSet> r = ev.Execute(op.text);
      if (r.ok() && r->profile() != nullptr) stages_.AddQuery(*r->profile());
    }
  }
  clients.clear();
  server->Stop();
  server.reset();
  if (durable()) {
    st = store->Close();
    if (!st.ok()) Problem("store close: " + st.ToString());
    store.reset();
    std::vector<std::pair<std::string, uint64_t>> acked = untraced.acked_views;
    acked.insert(acked.end(), traced.acked_views.begin(),
                 traced.acked_views.end());
    VerifyDurable(serve_path, db, acked);
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  if (!untraced.read_ns.empty()) {
    round_qps_.push_back(
        Ratio(static_cast<double>(untraced.attempted - untraced.failed),
              untraced.wall_s));
    round_p50_ns_.push_back(Percentile(untraced.read_ns, 0.50));
    round_p99_ns_.push_back(Percentile(untraced.read_ns, 0.99));
    min_round_reads_ = round_qps_.size() == 1
                           ? untraced.reads
                           : std::min(min_round_reads_, untraced.reads);
  }
  Record(false, std::move(untraced));
  if (opt_.trace) Record(true, std::move(traced));
  lanes_.push_back(std::move(setup_lane));
  return true;
}

bool Run::ColdOracle() {
  // Each query on an independent replica, starting from an empty
  // SolverCache, so that a wrong memoized verdict shows up.
  Database replica;
  Status st = BuildDatabase(opt_.kind, &replica);
  if (!st.ok()) return Problem("replica: " + st.ToString());
  for (uint64_t i = 0; i < kColdOps; ++i) {
    SolverCache::Global().Clear();
    expected_cold_.push_back(
        Expected(&replica, MakeOp(opt_.kind, opt_.seed, i).text));
  }
  op_ns_.resize(kColdOps);
  chunk_s_.resize(kColdOps / kColdChunkOps);
  return true;
}

bool Run::ColdPass(int pass) {
  // A trace run alternates untraced and traced passes.
  const bool traced = opt_.trace && pass % 2 == 1;
  EvalOptions eval;
  eval.collect_trace = traced;
  SpanLane lane;
  for (uint64_t chunk = 0; chunk < chunk_s_.size(); ++chunk) {
    // Every pass starts a chunk from the same state, so that its passes
    // do identical work.
    Reference(false);
    SolverCache::Global().Clear();
      const int64_t setup_start = NowNs();
    Database db;
    Status st = BuildDatabase(opt_.kind, &db);
    if (!st.ok()) return Problem("build: " + st.ToString());
    if (opt_.trace) lane.push_back({"setup.build_db", 0, setup_start, NowNs()});
    const int64_t warm_start = NowNs();
    for (int j = 0; j < kColdWarmupOps; ++j) {
      const Op op = MakeOp(opt_.kind, opt_.seed,
                           kWarmupBase + chunk * 16 + static_cast<uint64_t>(j));
      Evaluator ev(&db, EvalOptions{});
      if (!ev.Execute(op.text).ok()) Problem("warm-up query failed");
    }
    if (opt_.trace) lane.push_back({"query.warmup", 0, warm_start, NowNs()});
    setup_s_.push_back(static_cast<double>(NowNs() - setup_start) / 1e9);

    std::vector<std::pair<uint64_t, double>> latencies;
    PhaseStats ps = Measured(
        traced, chunk * kColdChunkOps, kColdChunkOps,
        [&](uint64_t first, uint64_t n, PhaseStats* stats) {
          for (uint64_t index = first; index < first + n; ++index) {
            const Op op = MakeOp(opt_.kind, opt_.seed, index);
            ++stats->attempted;
            const int64_t t0 = NowNs();
            Evaluator ev(&db, eval);
            Result<ResultSet> r = ev.Execute(op.text);
            const int64_t t1 = NowNs();
            if (traced) lane.push_back({"query.execute", index, t0, t1});
            // The check is outside the latency but inside the chunk's
            // wall time (and so throughput_qps).
            if (!r.ok()) {
              stats->Fail("status");
              continue;
            }
            if (Fingerprint(r) != expected_cold_[index]) {
              stats->Fail("mismatch");
              continue;
            }
            const double latency = static_cast<double>(t1 - t0);
            stats->read_ns.push_back(latency);
            ++stats->reads;
            stats->rows += r->size();
            if (traced && r->profile() != nullptr) {
              stages_.AddQuery(*r->profile());
            }
            latencies.emplace_back(index, latency);
          }
        });
      if (!traced) {
      chunk_s_[chunk].push_back(ps.wall_s);
      for (const auto& [index, ns] : latencies) op_ns_[index].push_back(ns);
    }
    Record(traced, std::move(ps));
  }
  SolverCache::Global().Clear();
  lanes_.push_back(std::move(lane));
  return true;
}

void Run::Record(bool traced, PhaseStats phase) {
  measured_s_ += phase.wall_s;
  (traced ? traced_ : untraced_).Merge(std::move(phase));
}

void Run::SelfChecks() {
  const MetricsSnapshot& reg = untraced_reg_;
  const double hits = static_cast<double>(CounterOf(reg, "solver_cache.hits"));
  const double misses =
      static_cast<double>(CounterOf(reg, "solver_cache.misses"));
  const double hit_ratio = Ratio(hits, hits + misses);
  if (opt_.kind == WorkloadKind::kOfficeWarm && hit_ratio < kWarmMinHitRatio) {
    Problem("self-check: office_warm solver-cache hit ratio " +
            std::to_string(hit_ratio) + " < " + std::to_string(kWarmMinHitRatio));
  }
  if (opt_.kind == WorkloadKind::kSolverCold && hit_ratio > kColdMaxHitRatio) {
    Problem("self-check: solver_cold solver-cache hit ratio " +
            std::to_string(hit_ratio) + " > " + std::to_string(kColdMaxHitRatio));
  }
  const uint64_t spawned = CounterOf(reg, "exec.pool_threads_spawned") +
                           CounterOf(traced_reg_, "exec.pool_threads_spawned");
  if (spawned != 0) {
    Problem("self-check: " + std::to_string(spawned) +
            " pool threads spawned inside measured phases");
  }
  if (untraced_.read_ns.empty()) Problem("no verified reads measured");
  if (durable() && untraced_.write_ns.empty()) {
    Problem("no verified writes measured");
  }
  if (durability_missing_ > 0) {
    Problem(std::to_string(durability_missing_) +
            " acknowledged views missing after reopen");
  }
  for (const PhaseStats* ps : {&untraced_, &traced_}) {
    for (const auto& [kind, n] : ps->failures) {
      Problem(std::to_string(n) + " operations failed: " + kind);
    }
  }
}

void Run::EndToEndMetrics(RunReport* report) const {
  double qps = 0, p50_ns = 0, p99_ns = 0;
  if (served()) {
    qps = Median(round_qps_);
    p50_ns = Median(round_p50_ns_);
    p99_ns = Median(round_p99_ns_);
  } else {
    double chunks_s = 0;
    for (const std::vector<double>& passes : chunk_s_) chunks_s += Median(passes);
    qps = Ratio(static_cast<double>(kColdOps), chunks_s);
    std::vector<double> latency;
    for (const std::vector<double>& passes : op_ns_) {
      if (!passes.empty()) latency.push_back(Median(passes));
    }
    p50_ns = Percentile(latency, 0.50);
    p99_ns = Percentile(latency, 0.99);
  }
  // Times are reported scaled; the summary also prints them as measured.
  const double scale = Ratio(kReferenceNs, Median(reference_ns_));
  auto add = [&](const char* name, double measured, double reported,
                 const char* unit) {
    report->metrics.push_back({name, reported, unit});
    report->measured.push_back({name, measured, unit});
  };
  add("throughput_qps", qps, Ratio(qps, scale), "1/s");
  add("query_p50_us", p50_ns / 1e3, p50_ns / 1e3 * scale, "us");
  add("query_p99_us", p99_ns / 1e3, p99_ns / 1e3 * scale, "us");
  add("setup_s", Median(setup_s_), Median(setup_s_) * scale, "s");
  report->metrics.push_back({"peak_rss_mb", peak_rss_mb_, "MB"});
}

void Run::PerLayerMetrics(RunReport* report) const {
  const MetricsSnapshot& reg = traced_reg_;
  const PhaseStats& t = traced_;
  const double ops = static_cast<double>(t.reads + t.writes);
  const double writes = static_cast<double>(t.writes);
  auto add = [&](const std::string& name, double value, const char* unit) {
    report->metrics.push_back({name, value, unit});
  };
  auto count = [&](const char* name) {
    return static_cast<double>(CounterOf(reg, name));
  };
  auto busy_us = [&](const char* name) {
    return static_cast<double>(HistogramOf(reg, name).sum) / 1e3;
  };

  const double replayed = static_cast<double>(stages_.queries);
  for (const char* stage : {"parse", "from", "where", "select", "canonicalize"}) {
    auto it = stages_.self_ns.find(stage);
    const double ns =
        it == stages_.self_ns.end() ? 0 : static_cast<double>(it->second);
    add(std::string("query.") + stage + "_us", Ratio(ns / 1e3, replayed), "us");
  }
  add("query.rows_per_query", Ratio(static_cast<double>(t.rows), ops), "count");

  const double pivots = count("simplex.pivots");
  add("constraint.simplex.solves_per_query", Ratio(count("simplex.lp_solves"), ops),
      "count");
  add("constraint.simplex.pivots_per_query", Ratio(pivots, ops), "count");
  add("constraint.simplex.us_per_pivot", Ratio(busy_us("simplex.solve"), pivots),
      "us");
  add("constraint.simplex.busy_us_per_query", Ratio(busy_us("simplex.solve"), ops),
      "us");
  add("constraint.fm.busy_us_per_query", Ratio(busy_us("fm.project"), ops), "us");
  add("constraint.canonical.busy_us_per_query",
      Ratio(busy_us("canonical.simplify"), ops), "us");
  add("constraint.entailment.busy_us_per_query",
      Ratio(busy_us("entailment.check"), ops), "us");

  const double hits = count("solver_cache.hits");
  const double lookups = hits + count("solver_cache.misses");
  add("constraint.solver_cache.hit_ratio", Ratio(hits, lookups), "ratio");
  add("constraint.solver_cache.lookups_per_query", Ratio(lookups, ops), "count");
  add("constraint.solver_cache.evictions_per_query",
      Ratio(count("solver_cache.evictions"), ops), "count");

  const auto& queue_wait = HistogramOf(reg, "scheduler.queue_wait");
  add("exec.admission.queue_wait_p50_us",
      static_cast<double>(queue_wait.p50()) / 1e3, "us");
  add("exec.admission.queue_wait_p99_us",
      static_cast<double>(queue_wait.p99()) / 1e3, "us");
  add("exec.pool.threads_spawned_per_query",
      Ratio(count("exec.pool_threads_spawned"), ops), "count");

  double roundtrip_ns = 0, roundtrips = 0;
  for (const SpanLane& lane : lanes_) {
    for (const SpanRecord& s : lane) {
      if (std::string_view(s.name) != "net.client_execute") continue;
      roundtrip_ns += static_cast<double>(s.end_ns - s.start_ns);
      ++roundtrips;
    }
  }
  const double roundtrip_us = Ratio(roundtrip_ns / 1e3, roundtrips);
  const auto& server_latency = HistogramOf(reg, "query.latency");
  add("net.roundtrip_us", roundtrip_us, "us");
  add("net.overhead_us",
      served() ? roundtrip_us -
                     Ratio(static_cast<double>(server_latency.sum) / 1e3,
                           static_cast<double>(server_latency.count))
               : 0,
      "us");
  add("net.response_bytes_per_query",
      Ratio(static_cast<double>(t.response_bytes), ops), "B");

  const auto& commit = HistogramOf(reg, "storage.commit_ns");
  const auto& recovery = HistogramOf(recovery_reg_, "storage.recovery_ns");
  const double pool_hits = count("storage.pool.hits");
  add("storage.commit_us",
      Ratio(static_cast<double>(commit.sum) / 1e3,
            static_cast<double>(commit.count)),
      "us");
  add("storage.sync_db_us_per_write",
      Ratio(busy_us("storage.sync_db_ns"), writes), "us");
  add("storage.fsyncs_per_write", Ratio(count("storage.io.fsyncs"), writes),
      "count");
  add("storage.bytes_written_per_write",
      Ratio(count("storage.io.bytes_written"), writes), "B");
  add("storage.pool.hit_ratio",
      Ratio(pool_hits, pool_hits + count("storage.pool.misses")), "ratio");
  add("storage.recovery_ms",
      Ratio(static_cast<double>(recovery.sum) / 1e6,
            static_cast<double>(recovery.count)),
      "ms");
  // Write latency is end-to-end for durable_mixed but zero elsewhere, so
  // it is reported here, from the untraced half of each round.
  add("storage.write_p50_us", Percentile(untraced_.write_ns, 0.50) / 1e3, "us");
  add("storage.write_p99_us", Percentile(untraced_.write_ns, 0.99) / 1e3, "us");

  add("obs.trace_overhead_ratio",
      Ratio(Percentile(t.read_ns, 0.50), Percentile(untraced_.read_ns, 0.50)),
      "ratio");
}

void Run::WriteTrace() const {
  if (opt_.trace_out.empty()) return;
  std::ofstream out(opt_.trace_out);
  out << "{\"traceEvents\": [";
  const char* sep = "\n";
  for (size_t tid = 0; tid < lanes_.size(); ++tid) {
    for (const SpanRecord& s : lanes_[tid]) {
      out << sep << "{\"name\": \"" << s.name
          << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
          << ", \"ts\": " << s.start_ns / 1000
          << ", \"dur\": " << (s.end_ns - s.start_ns) / 1000
          << ", \"args\": {\"request\": " << s.request << "}}";
      sep = ",\n";
    }
  }
  out << "\n]}\n";
}

RunReport Run::Execute() {
  // solver_cold's single caller stays on the CPU it starts on, and so
  // does the reference kernel's child, which inherits the mask: the
  // vCPUs of a shared host differ in speed, and both then see the same.
  cpu_set_t unpinned;
  const bool pinned = !served() && PinToCurrentCpu(&unpinned);
  bool ok = served() ? ServedOracle() : ColdOracle();
  // Rounds repeat, at least kMinRounds, while one more as long as the
  // last still fits into --seconds of measured time.
  int round = 0;
  double last_s = 0;
  while (ok && (round < kMinRounds || measured_s_ + last_s <= opt_.seconds)) {
    const double before = measured_s_;
    ok = served() ? ServedRound() : ColdPass(round);
    last_s = measured_s_ - before;
    if (++round == kMinRounds) {
      struct rusage usage {};
      getrusage(RUSAGE_SELF, &usage);
      peak_rss_mb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
  }
  Reference(true);
  if (pinned) sched_setaffinity(0, sizeof(unpinned), &unpinned);
  if (!opt_.trace && reference_ns_.empty()) {
    Problem("the reference kernel did not run");
  }
  SelfChecks();
  RunReport report;
  report.attempted =
      untraced_.attempted + traced_.attempted + durability_checked_;
  report.failed = untraced_.failed + traced_.failed + durability_missing_;
  report.problems = problems_;
  report.correct = problems_.empty() && report.failed == 0;
  report.query_samples = served() ? min_round_reads_ : kColdOps;
  report.rounds = static_cast<uint64_t>(round);
  report.measured_seconds = measured_s_;
  report.reference_ms = Median(reference_ns_) / 1e6;
  report.time_scale = Ratio(kReferenceNs, Median(reference_ns_));
  report.reference_samples = reference_ns_.size();
  if (opt_.trace) {
    PerLayerMetrics(&report);
    WriteTrace();
  } else {
    EndToEndMetrics(&report);
  }
  return report;
}

}  // namespace

double ReferenceKernelNs(size_t threads) {
  // Map inserts and an in-order walk: allocation and pointer chasing, as
  // in the engine's own work, but in code no engine change touches.
  auto unit = [] {
    uint64_t acc = 0;
    for (uint64_t r = 0; r < 2; ++r) {
      std::map<uint64_t, uint64_t> m;
      uint64_t x = r + 1;
      for (uint64_t i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        m[x >> 20] += i;
      }
      for (const auto& [k, v] : m) acc += k ^ v;
    }
    return acc;
  };
  std::vector<double> medians(std::max<size_t>(threads, 1));
  std::vector<std::thread> workers;
  for (double& median : medians) {
    workers.emplace_back([&unit, &median] {
      volatile uint64_t sink = unit();  // warm-up
      std::vector<double> ns;
      for (int i = 0; i < 5; ++i) {
        const int64_t start = NowNs();
        sink = sink + unit();
        ns.push_back(static_cast<double>(NowNs() - start));
      }
      median = Median(ns);
    });
  }
  for (std::thread& worker : workers) worker.join();
  return Median(medians);
}

RunReport RunBenchmark(const RunOptions& options) {
  Run run(options);
  return run.Execute();
}

}  // namespace perfbench
