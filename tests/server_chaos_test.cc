// The kill -9 chaos harness: a REAL lyric_serverd process, under a real
// client, killed at deterministic WAL byte offsets (LYRIC_STORAGE_CRASH_AT,
// the PR-9 crash budget) in the middle of acknowledged CREATE commits —
// then restarted, and the recovered store held to the contract:
//
//   acked  ⊆  recovered  ⊆  acked ∪ {the one in-flight mutation}
//
// with the recovered database byte-identical (Serializer dump) to an
// in-process replica that ran exactly the recovered statement prefix.
// "acked" means the client read a successful response off the wire:
// commit-before-ack says every such mutation MUST survive; the single
// in-flight statement at the kill MAY have committed (the crash can land
// after the commit record but before the response) — never more.
//
// The same harness drives the graceful half: SIGTERM must answer every
// accepted query (zero in_flight_at_disconnect across all clients) and
// exit 0; a second signal, or an expired --drain-deadline-ms, forces a
// hard stop with exit 3.
//
// The short matrix (a handful of crash points) runs in every ctest
// invocation; LYRIC_CHAOS_FULL=1 sweeps a dense delta grid around every
// commit boundary (the CI nightly). On failure each round preserves its
// store + WAL debris under LYRIC_CHAOS_ARTIFACT_DIR when set.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "office/office_db.h"
#include "query/evaluator.h"
#include "storage/paged_store.h"
#include "storage/serializer.h"

#ifndef LYRIC_SERVERD_PATH
#error "build must define LYRIC_SERVERD_PATH (see tests/CMakeLists.txt)"
#endif

namespace lyric {
namespace {

using storage::PagedStore;

// -- the mutation workload -------------------------------------------------

constexpr int kViews = 3;

std::string ViewName(int i) { return "Chaos_V" + std::to_string(i); }

std::string ViewStatement(int i) {
  return "CREATE VIEW " + ViewName(i) +
         " AS SUBCLASS OF Object_in_Room SELECT O FROM Object_in_Room O "
         "WHERE O.location[L] and L(x, y) |= x <= " + std::to_string(8 + i);
}

Database MakeOfficeDb() {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  EXPECT_TRUE(ids.ok()) << ids.status();
  return db;
}

// -- process plumbing ------------------------------------------------------

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void RemoveStore(const std::string& path) {
  ::unlink(path.c_str());
  ::unlink(PagedStore::WalPathFor(path).c_str());
}

/// Seeds a fresh store with the office database and closes it cleanly:
/// the serverd under test boots on a non-empty store with an empty WAL,
/// so crash budgets map 1:1 onto its own commit appends.
void SeedStore(const std::string& path) {
  RemoveStore(path);
  auto store = PagedStore::Open({.path = path}).value();
  Database db = MakeOfficeDb();
  ASSERT_TRUE(store->ImportDatabase(db).ok());
  ASSERT_TRUE(store->Close().ok());
}

struct Serverd {
  pid_t pid = -1;
  uint16_t port = 0;
  std::string port_file;
};

/// fork/execs the real lyric_serverd on `store`, with the crash budget
/// armed in the CHILD's environment only. Returns pid -1 on failure.
Serverd LaunchServerd(const std::string& store, int64_t crash_at,
                      uint64_t drain_deadline_ms) {
  static std::atomic<int> launch_seq{0};
  Serverd sd;
  // The pid keeps test processes that ctest runs in parallel from
  // reading each other's port files.
  sd.port_file = TempPath("chaos_port." + std::to_string(::getpid()) + "." +
                          std::to_string(launch_seq.fetch_add(1)));
  ::unlink(sd.port_file.c_str());

  pid_t pid = ::fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork failed";
    return sd;
  }
  if (pid == 0) {
    // Child. Quiet unless an artifact dir wants the logs.
    const char* artifact_dir = std::getenv("LYRIC_CHAOS_ARTIFACT_DIR");
    std::string log = artifact_dir != nullptr
                          ? std::string(artifact_dir) + "/serverd." +
                                std::to_string(::getpid()) + ".log"
                          : "/dev/null";
    int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      ::close(fd);
    }
    if (crash_at >= 0) {
      ::setenv("LYRIC_STORAGE_CRASH_AT", std::to_string(crash_at).c_str(),
               1);
    } else {
      ::unsetenv("LYRIC_STORAGE_CRASH_AT");
    }
    ::unsetenv("LYRIC_STORAGE_FULL_AT");
    ::unsetenv("LYRIC_FAULT");
    const std::string deadline = std::to_string(drain_deadline_ms);
    ::execl(LYRIC_SERVERD_PATH, "lyric_serverd", "--store", store.c_str(),
            "--port", "0", "--port-file", sd.port_file.c_str(),
            "--drain-deadline-ms", deadline.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);  // exec failed
  }
  sd.pid = pid;
  return sd;
}

/// Polls for the port file (the serverd writes it atomically once the
/// listener is live). False when the child exits first or time runs out.
bool AwaitReady(Serverd* sd, int timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(sd->port_file);
    int port = 0;
    if (in && (in >> port) && port > 0) {
      sd->port = static_cast<uint16_t>(port);
      ::unlink(sd->port_file.c_str());
      return true;
    }
    int status = 0;
    if (::waitpid(sd->pid, &status, WNOHANG) == sd->pid) {
      ADD_FAILURE() << "serverd exited before becoming ready, status="
                    << status;
      sd->pid = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// Reaps the child; -1 on timeout (after SIGKILL), else the exit code
/// (or 128+signal when signalled).
int WaitExit(Serverd* sd, int timeout_ms = 15000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    int status = 0;
    pid_t r = ::waitpid(sd->pid, &status, WNOHANG);
    if (r == sd->pid) {
      sd->pid = -1;
      if (WIFEXITED(status)) return WEXITSTATUS(status);
      if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
      return -2;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(sd->pid, SIGKILL);
      ::waitpid(sd->pid, &status, 0);
      sd->pid = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void KillHard(Serverd* sd) {
  if (sd->pid > 0) {
    ::kill(sd->pid, SIGKILL);
    int status = 0;
    ::waitpid(sd->pid, &status, 0);
    sd->pid = -1;
  }
}

int64_t FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return -1;
  return static_cast<int64_t>(st.st_size);
}

/// Copies the store + WAL into LYRIC_CHAOS_ARTIFACT_DIR (when set) so a
/// failed round leaves its debris for post-mortem.
void PreserveDebris(const std::string& store, const std::string& tag) {
  const char* dir = std::getenv("LYRIC_CHAOS_ARTIFACT_DIR");
  if (dir == nullptr) return;
  ::mkdir(dir, 0755);
  for (const std::string& src : {store, PagedStore::WalPathFor(store)}) {
    std::ifstream in(src, std::ios::binary);
    if (!in) continue;
    std::string base = src.substr(src.find_last_of('/') + 1);
    std::ofstream out(std::string(dir) + "/" + tag + "." + base,
                      std::ios::binary);
    out << in.rdbuf();
  }
}

net::ClientOptions PlainClient(uint16_t port) {
  net::ClientOptions opts;
  opts.port = port;
  return opts;
}

/// The serializer dump of an office database that ran the first
/// `n_views` chaos statements — the byte-identity oracle.
std::string ReplicaDump(int n_views) {
  Database replica = MakeOfficeDb();
  Evaluator ev(&replica, EvalOptions{});
  for (int i = 0; i < n_views; ++i) {
    auto res = ev.Execute(ViewStatement(i));
    EXPECT_TRUE(res.ok()) << res.status();
  }
  auto dump = Serializer::DumpDatabase(replica);
  EXPECT_TRUE(dump.ok()) << dump.status();
  return dump.ok() ? *dump : std::string();
}

// -- the crash matrix ------------------------------------------------------

/// One crash round: seed, serve, kill at `crash_at` WAL-append bytes,
/// verify the recovery contract, then prove the recovered store serves.
/// Returns false (with gtest failures recorded) when the round failed.
bool RunCrashRound(const std::string& store, int64_t crash_at,
                   const std::string& tag) {
  SeedStore(store);
  if (::testing::Test::HasFatalFailure()) return false;
  Serverd sd = LaunchServerd(store, crash_at, /*drain_deadline_ms=*/5000);
  if (sd.pid < 0 || !AwaitReady(&sd)) {
    ADD_FAILURE() << tag << ": serverd did not become ready";
    KillHard(&sd);
    return false;
  }

  // Drive CREATEs until the crash cuts the connection. acked = the
  // prefix whose responses arrived; the first unacked one (if any) is
  // the single in-flight statement.
  int acked = 0;
  bool died = false;
  {
    net::Client client(PlainClient(sd.port));
    for (int i = 0; i < kViews; ++i) {
      Result<net::QueryResponse> resp = client.Execute(ViewStatement(i));
      if (!resp.ok()) {
        died = true;  // transport cut: the kill landed during this one
        break;
      }
      if (!resp->status.ok()) {
        ADD_FAILURE() << tag << ": CREATE " << i
                      << " failed in-band: " << resp->status.ToString();
        KillHard(&sd);
        return false;
      }
      acked = i + 1;
    }
  }

  const int exit_code = WaitExit(&sd);
  if (exit_code != 137) {
    ADD_FAILURE() << tag << ": expected exit 137 (simulated kill -9), got "
                  << exit_code << " (acked=" << acked << ", died=" << died
                  << ")";
    return false;
  }

  // Recovery: reopen in process and hold the contract.
  auto reopened = PagedStore::Open({.path = store});
  if (!reopened.ok()) {
    ADD_FAILURE() << tag << ": recovery failed: "
                  << reopened.status().ToString();
    return false;
  }
  Database recovered;
  Status exported = (*reopened)->ExportToDatabase(&recovered);
  if (!exported.ok()) {
    ADD_FAILURE() << tag << ": export failed: " << exported.ToString();
    return false;
  }

  // Views commit in statement order, so the recovered set must be a
  // prefix of the issued sequence.
  int n_recovered = 0;
  for (int i = 0; i < kViews; ++i) {
    const bool has = recovered.schema().HasClass(ViewName(i));
    if (has && n_recovered != i) {
      ADD_FAILURE() << tag << ": recovered view set is not a prefix: has "
                    << ViewName(i) << " but not " << ViewName(n_recovered);
      return false;
    }
    if (has) n_recovered = i + 1;
  }

  EXPECT_GE(n_recovered, acked)
      << tag << ": an ACKNOWLEDGED commit was lost (commit-before-ack "
      << "violated)";
  EXPECT_LE(n_recovered, acked + 1)
      << tag << ": more than the one in-flight statement materialized";
  if (n_recovered < acked || n_recovered > acked + 1) return false;

  // Byte-identity: the recovered database must dump exactly like a
  // replica that ran the recovered prefix.
  auto dump = Serializer::DumpDatabase(recovered);
  EXPECT_TRUE(dump.ok()) << tag << ": " << dump.status().ToString();
  if (!dump.ok()) return false;
  const std::string want = ReplicaDump(n_recovered);
  EXPECT_EQ(*dump, want) << tag << ": recovered dump diverged";
  if (*dump != want) return false;
  EXPECT_TRUE((*reopened)->Close().ok());

  // And the recovered store SERVES: restart serverd on it, read every
  // recovered view over the wire, then drain out cleanly.
  Serverd sd2 = LaunchServerd(store, /*crash_at=*/-1,
                              /*drain_deadline_ms=*/5000);
  if (sd2.pid < 0 || !AwaitReady(&sd2)) {
    ADD_FAILURE() << tag << ": restart did not become ready";
    KillHard(&sd2);
    return false;
  }
  {
    net::Client client(PlainClient(sd2.port));
    net::HealthInfo info;
    Status hs = client.Health(&info);
    EXPECT_TRUE(hs.ok()) << tag << ": " << hs.ToString();
    if (hs.ok()) {
      EXPECT_TRUE(info.store_backed);
      EXPECT_EQ(info.state, net::HealthState::kServing);
    }
    for (int i = 0; i < n_recovered; ++i) {
      Result<net::QueryResponse> resp =
          client.Execute("SELECT V FROM " + ViewName(i) + " V");
      EXPECT_TRUE(resp.ok() && resp->status.ok())
          << tag << ": recovered view " << i << " does not serve";
    }
  }
  ::kill(sd2.pid, SIGTERM);
  EXPECT_EQ(WaitExit(&sd2), 0) << tag << ": restart did not drain cleanly";
  return !::testing::Test::HasFailure();
}

TEST(ServerChaos, KillNineAtCommitBoundariesRecoversAckedPrefix) {
  const std::string store = TempPath("chaos_crash.lyricpg");

  // Reference round: same seed, same statements, no crash. The WAL file
  // size after each acknowledged CREATE marks that commit's end offset;
  // subtracting the size at boot (the replayed-then-reset WAL header)
  // turns offsets into this-process crash budgets.
  SeedStore(store);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  Serverd ref = LaunchServerd(store, /*crash_at=*/-1,
                              /*drain_deadline_ms=*/5000);
  ASSERT_GE(ref.pid, 0);
  ASSERT_TRUE(AwaitReady(&ref));
  const std::string wal = PagedStore::WalPathFor(store);
  const int64_t base = FileSize(wal);
  ASSERT_GT(base, 0);
  std::vector<int64_t> commit_end(kViews);
  {
    net::Client client(PlainClient(ref.port));
    for (int i = 0; i < kViews; ++i) {
      Result<net::QueryResponse> resp = client.Execute(ViewStatement(i));
      ASSERT_TRUE(resp.ok()) << resp.status();
      ASSERT_TRUE(resp->status.ok()) << resp->status;
      commit_end[i] = FileSize(wal) - base;
      ASSERT_GT(commit_end[i], 0);
    }
  }
  ::kill(ref.pid, SIGTERM);
  ASSERT_EQ(WaitExit(&ref), 0) << "reference round did not drain cleanly";

  // Crash points: exactly at each commit boundary (the record is whole,
  // the response may not have left) and just inside it (torn tail). The
  // full sweep adds a dense delta grid per boundary.
  std::vector<int64_t> crash_points;
  const bool full = std::getenv("LYRIC_CHAOS_FULL") != nullptr;
  for (int i = 0; i < kViews; ++i) {
    // A budget equal to the LAST commit's end never fires (budgets
    // trip on the append that would cross them, and nothing follows),
    // so the exact-boundary point exists only for earlier commits.
    if (i + 1 < kViews) crash_points.push_back(commit_end[i]);
    crash_points.push_back(commit_end[i] - 1);
    if (full) {
      for (int64_t delta : {2, 4, 8, 16, 32, 64, 128}) {
        if (commit_end[i] - delta > 0) {
          crash_points.push_back(commit_end[i] - delta);
        }
      }
    }
  }

  int rounds_failed = 0;
  for (int64_t crash_at : crash_points) {
    const std::string tag = "crash_at_" + std::to_string(crash_at);
    if (!RunCrashRound(store, crash_at, tag)) {
      PreserveDebris(store, tag);
      ++rounds_failed;
    }
  }
  EXPECT_EQ(rounds_failed, 0)
      << rounds_failed << "/" << crash_points.size()
      << " crash rounds failed (debris preserved when "
      << "LYRIC_CHAOS_ARTIFACT_DIR is set)";
  RemoveStore(store);
}

// -- graceful drain, process level -----------------------------------------

TEST(ServerChaos, SigtermDrainDropsNoAcceptedQuery) {
  const std::string store = TempPath("chaos_drain.lyricpg");
  SeedStore(store);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  Serverd sd = LaunchServerd(store, /*crash_at=*/-1,
                             /*drain_deadline_ms=*/10000);
  ASSERT_GE(sd.pid, 0);
  ASSERT_TRUE(AwaitReady(&sd));

  constexpr int kClients = 3;
  std::array<std::atomic<uint64_t>, kClients> ok_responses{};
  std::atomic<uint64_t> dropped_in_flight{0};
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      net::Client client(PlainClient(sd.port));
      for (int round = 0; round < 100000; ++round) {
        Result<net::QueryResponse> resp =
            client.Execute("SELECT O FROM Object_in_Room O");
        if (!resp.ok()) {
          // A transport failure = an accepted query whose response was
          // never delivered. Drain forbids exactly this.
          failures[c] = "transport: " + resp.status().ToString();
          dropped_in_flight += client.stats().in_flight_at_disconnect;
          return;
        }
        if (resp->status.IsUnavailable()) return;  // typed shed: drained
        if (!resp->status.ok()) {
          failures[c] = "eval: " + resp->status.ToString();
          return;
        }
        ++ok_responses[c];
      }
    });
  }

  // Let the load establish on every client, then SIGTERM mid-flight. A
  // client that has had an answer holds an accepted session, which is
  // what the drain contract covers; one still connecting when the
  // listener closes is refused or reset instead (docs/SERVER.md).
  auto all_answered = [&] {
    for (const std::atomic<uint64_t>& n : ok_responses) {
      if (n.load() < 2) return false;
    }
    return true;
  };
  for (int spin = 0; spin < 10000 && !all_answered(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::kill(sd.pid, SIGTERM);
  for (std::thread& t : threads) t.join();

  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], "");
  EXPECT_EQ(dropped_in_flight.load(), 0u);
  EXPECT_EQ(WaitExit(&sd), 0) << "drain with well-behaved clients must "
                              << "exit 0";
  if (::testing::Test::HasFailure()) PreserveDebris(store, "sigterm_drain");
  RemoveStore(store);
}

TEST(ServerChaos, SecondSignalForcesHardStop) {
  const std::string store = TempPath("chaos_force.lyricpg");
  SeedStore(store);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  Serverd sd = LaunchServerd(store, /*crash_at=*/-1,
                             /*drain_deadline_ms=*/60000);
  ASSERT_GE(sd.pid, 0);
  ASSERT_TRUE(AwaitReady(&sd));

  // An idle but CONNECTED client keeps the drain lingering (sessions
  // must disconnect before a clean exit), so the second signal is what
  // ends it — exit 3, the forced-stop code.
  net::Client client(PlainClient(sd.port));
  ASSERT_TRUE(client.Ping().ok());
  ::kill(sd.pid, SIGTERM);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ::kill(sd.pid, SIGTERM);
  EXPECT_EQ(WaitExit(&sd), 3);

  // Forced or not, acknowledged state survives: the store reopens.
  auto reopened = PagedStore::Open({.path = store});
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_GT((*reopened)->RecordCount(), 0u);
  EXPECT_TRUE((*reopened)->Close().ok());
  RemoveStore(store);
}

TEST(ServerChaos, DrainDeadlineForcesHardStop) {
  const std::string store = TempPath("chaos_deadline.lyricpg");
  SeedStore(store);
  ASSERT_FALSE(::testing::Test::HasFatalFailure());
  Serverd sd = LaunchServerd(store, /*crash_at=*/-1,
                             /*drain_deadline_ms=*/300);
  ASSERT_GE(sd.pid, 0);
  ASSERT_TRUE(AwaitReady(&sd));

  // The lingering session never goes away; the deadline must.
  net::Client client(PlainClient(sd.port));
  ASSERT_TRUE(client.Ping().ok());
  ::kill(sd.pid, SIGTERM);
  EXPECT_EQ(WaitExit(&sd), 3);
  RemoveStore(store);
}

}  // namespace
}  // namespace lyric
