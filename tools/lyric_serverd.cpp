// lyric_serverd: the standalone LyriC query server.
//
//   lyric_serverd [--host 127.0.0.1] [--port 7464] [--load dump.lyricdb]
//                 [--store store.lyricpg] [--scale N]
//                 [--max-rows N] [--max-concurrent N]
//                 [--queue-capacity N] [--queue-timeout-ms N]
//                 [--max-memory BYTES] [--drain-deadline-ms N]
//                 [--port-file PATH]
//
// Serves one of:
//   * --store PATH   a crash-safe PagedStore. Boot runs WAL redo
//                    recovery, then hydrates the serving database from
//                    the store; an empty store is seeded from --load or
//                    the built-in office database and the seed is
//                    committed before the listener opens. Schema
//                    mutations write through to the store before the
//                    client is acknowledged (docs/ROBUSTNESS.md).
//   * --load FILE    a persisted dump (storage-layer text format),
//                    memory-only.
//   * neither        the built-in Figure 2 office database (optionally
//                    grown with --scale extra desks), memory-only.
//
// Lifecycle (docs/SERVER.md "Lifecycle and health"):
//
//   SIGTERM/SIGINT   graceful drain: stop accepting, answer every
//                    already-accepted query, wait for connected clients
//                    to disconnect, checkpoint + close the store, exit 0.
//                    --drain-deadline-ms bounds the wait (default 5000).
//   second signal    hard stop, exit 3 (durable state is still safe:
//                    every acknowledged commit is on disk).
//
// Signals are observed via sigaction + self-pipe — the handler writes
// one byte; the main thread blocks in poll() on the pipe, so shutdown
// latency is the syscall wakeup, not a poll interval.
//
// --port-file writes "PORT\n" atomically once the listener is live;
// supervisors (the chaos harness) use it to discover an ephemeral port.
//
// Numeric flags take decimal digits only, within each flag's range; any
// bad flag prints the usage and exits 2.
//
// Admission limits start from the environment (docs/CONFIG.md); the four
// admission flags override them field by field, and the result
// configures the process's one scheduler. LYRIC_RETRY does not reach the
// server's evaluator: the client owns retry.
//
// Protocol, frame layout, and error mapping: docs/SERVER.md. Talk to it
// with net::Client or tools/lyric_loadgen.

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "config/config.h"
#include "net/server.h"
#include "office/office_db.h"
#include "storage/file_io.h"
#include "storage/paged_store.h"
#include "storage/serializer.h"
#include "util/deadline.h"
#include "util/string_util.h"

namespace {

using lyric::Database;
using lyric::Status;

constexpr uint64_t kNoMax = std::numeric_limits<uint64_t>::max();

struct Options {
  std::string host = "127.0.0.1";
  uint16_t port = 7464;
  std::string load;   // dump file; empty = built-in office database
  std::string store;  // PagedStore path; empty = memory-only serving
  std::string port_file;
  int scale = 0;
  uint64_t max_rows = 0;
  uint64_t drain_deadline_ms = 5000;
  // The environment's settings, which the admission flags override.
  lyric::Config config = lyric::Config::FromEnv();
};

void PrintUsage() {
  std::cerr << "usage: lyric_serverd [--host H] [--port P] "
               "[--load FILE] [--store FILE] [--port-file PATH] "
               "[--scale N] "
               "[--max-rows N] [--max-concurrent N] "
               "[--queue-capacity N] [--queue-timeout-ms N] "
               "[--max-memory BYTES] [--drain-deadline-ms N]\n";
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "lyric_serverd: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    // Reads numeric `flag`'s value into n: decimal digits in [lo, hi].
    uint64_t n = 0;
    auto number = [&](const char* flag, uint64_t lo, uint64_t hi) {
      const char* v = next(flag);
      if (v == nullptr) return false;
      const std::optional<uint64_t> parsed = lyric::ParseUint64(v);
      if (!parsed.has_value() || *parsed < lo || *parsed > hi) {
        std::cerr << "lyric_serverd: " << flag << " takes a number in ["
                  << lo << ", " << hi << "], not '" << v << "'\n";
        return false;
      }
      n = *parsed;
      return true;
    };
    const char* v = nullptr;
    if (arg == "--host") {
      if ((v = next("--host")) == nullptr) return false;
      opt->host = v;
    } else if (arg == "--port") {
      if (!number("--port", 0, 65535)) return false;
      opt->port = static_cast<uint16_t>(n);
    } else if (arg == "--load") {
      if ((v = next("--load")) == nullptr) return false;
      opt->load = v;
    } else if (arg == "--store") {
      if ((v = next("--store")) == nullptr) return false;
      opt->store = v;
    } else if (arg == "--port-file") {
      if ((v = next("--port-file")) == nullptr) return false;
      opt->port_file = v;
    } else if (arg == "--scale") {
      if (!number("--scale", 0, std::numeric_limits<int>::max())) {
        return false;
      }
      opt->scale = static_cast<int>(n);
    } else if (arg == "--max-rows") {
      if (!number("--max-rows", 0, kNoMax)) return false;
      opt->max_rows = n;
    } else if (arg == "--drain-deadline-ms") {
      if (!number("--drain-deadline-ms", 0, kNoMax)) return false;
      opt->drain_deadline_ms = n;
    } else if (arg == "--max-concurrent") {
      // A cap of 0 would admit nothing.
      if (!number("--max-concurrent", 1, kNoMax)) return false;
      opt->config.scheduler.max_concurrent = n;
    } else if (arg == "--queue-capacity") {
      if (!number("--queue-capacity", 0, kNoMax)) return false;
      opt->config.scheduler.queue_capacity = n;
    } else if (arg == "--queue-timeout-ms") {
      if (!number("--queue-timeout-ms", 0, kNoMax)) return false;
      opt->config.scheduler.queue_timeout_ms = n;
    } else if (arg == "--max-memory") {
      if (!number("--max-memory", 0, kNoMax)) return false;
      opt->config.scheduler.max_total_memory = n;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::cerr << "lyric_serverd: unknown flag " << arg << "\n";
      return false;
    }
  }
  return true;
}

// Self-pipe: the handler's only action is a single write() — the one
// async-signal-safe way to hand the event to the main thread, which
// blocks in poll() on the read end. O_NONBLOCK keeps a signal storm
// from ever blocking the handler.
int g_signal_pipe[2] = {-1, -1};

void HandleSignal(int) {
  const char byte = 1;
  // EAGAIN (pipe full) is fine: one pending byte already means "shut
  // down"; additional signals are counted by draining the pipe later.
  ssize_t ignored = write(g_signal_pipe[1], &byte, 1);
  (void)ignored;
}

bool InstallSignalHandlers() {
  if (pipe2(g_signal_pipe, O_CLOEXEC | O_NONBLOCK) != 0) {
    std::cerr << "lyric_serverd: pipe2: " << errno << "\n";
    return false;
  }
  struct sigaction sa;
  sa.sa_handler = HandleSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  if (sigaction(SIGINT, &sa, nullptr) != 0 ||
      sigaction(SIGTERM, &sa, nullptr) != 0) {
    std::cerr << "lyric_serverd: sigaction: " << errno << "\n";
    return false;
  }
  return true;
}

/// Blocks up to `timeout_ms` (-1 = forever) for a signal byte; drains
/// and returns the number of bytes seen (0 on timeout).
int AwaitSignal(int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = g_signal_pipe[0];
  pfd.events = POLLIN;
  for (;;) {
    const int rc = poll(&pfd, 1, timeout_ms);
    if (rc == 0) return 0;
    if (rc < 0) {
      if (errno == EINTR) continue;  // retry; the byte is still coming
      return 0;
    }
    char buf[16];
    int seen = 0;
    for (;;) {
      const ssize_t n = read(g_signal_pipe[0], buf, sizeof buf);
      if (n > 0) {
        seen += static_cast<int>(n);
        continue;
      }
      break;  // EAGAIN: pipe drained
    }
    if (seen > 0) return seen;
  }
}

/// Seeds `db` from --load or the built-in office database.
Status BuildInitialDatabase(const Options& opt, Database* db) {
  if (!opt.load.empty()) {
    LYRIC_RETURN_NOT_OK(lyric::Serializer::LoadFromFile(opt.load, db));
    std::cout << "lyric_serverd: loaded " << opt.load << "\n";
    return Status::OK();
  }
  auto ids = lyric::office::BuildOfficeDatabase(db);
  if (!ids.ok()) return ids.status();
  if (opt.scale > 0) {
    LYRIC_RETURN_NOT_OK(
        lyric::office::AddScaledDesks(db, opt.scale, /*seed=*/7));
  }
  std::cout << "lyric_serverd: serving the built-in office database"
            << (opt.scale > 0 ? " (+" + std::to_string(opt.scale) + " desks)"
                              : "")
            << "\n";
  return Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    PrintUsage();
    return 2;
  }
  opt.config.Apply();
  if (!InstallSignalHandlers()) return 2;

  // -- hydrate -------------------------------------------------------------
  Database db;
  std::unique_ptr<lyric::storage::PagedStore> store;
  if (!opt.store.empty()) {
    lyric::storage::StoreOptions sopt;
    sopt.path = opt.store;
    auto opened = lyric::storage::PagedStore::Open(sopt);
    if (!opened.ok()) {
      std::cerr << "lyric_serverd: store open failed: "
                << opened.status().ToString() << "\n";
      return 1;
    }
    store = std::move(*opened);
    const auto& rec = store->recovery();
    std::cout << "lyric_serverd: opened store " << opt.store << " (recovered "
              << rec.committed_txns << " txns, " << rec.images_applied
              << " page images, torn tail " << rec.torn_tail_bytes
              << " bytes)\n";
    if (store->RecordCount() == 0) {
      // Fresh store: seed it from --load / the office database, and
      // make the seed durable BEFORE the listener opens — a crash
      // after boot replays to this exact state.
      Status st = BuildInitialDatabase(opt, &db);
      if (!st.ok()) {
        std::cerr << "lyric_serverd: seed failed: " << st.ToString() << "\n";
        return 1;
      }
      st = store->ImportDatabase(db);
      if (!st.ok()) {
        std::cerr << "lyric_serverd: store seed import failed: "
                  << st.ToString() << "\n";
        return 1;
      }
      std::cout << "lyric_serverd: seeded empty store\n";
    } else {
      if (!opt.load.empty()) {
        // Refusing is safer than guessing which of the two databases
        // the operator meant to serve.
        std::cerr << "lyric_serverd: --load given but store is non-empty; "
                     "drop --load to serve the store, or point --store at "
                     "a fresh path to re-seed\n";
        return 2;
      }
      Status st = store->ExportToDatabase(&db);
      if (!st.ok()) {
        std::cerr << "lyric_serverd: store hydrate failed: " << st.ToString()
                  << "\n";
        return 1;
      }
      std::cout << "lyric_serverd: hydrated " << store->RecordCount()
                << " records from store\n";
    }
  } else {
    Status st = BuildInitialDatabase(opt, &db);
    if (!st.ok()) {
      std::cerr << "lyric_serverd: load failed: " << st.ToString() << "\n";
      return 1;
    }
  }

  // -- serve ---------------------------------------------------------------
  lyric::net::ServerOptions sopts;
  sopts.host = opt.host;
  sopts.port = opt.port;
  sopts.eval.deadline_ms = opt.config.deadline_ms;
  sopts.eval.memory_budget = opt.config.memory_budget;
  // 0 means "keep the evaluator default" — EvalOptions itself treats 0
  // literally (max_rows = 0 rejects every row).
  if (opt.max_rows > 0) sopts.eval.max_rows = opt.max_rows;
  sopts.store = store.get();

  lyric::net::Server server(&db, sopts);
  Status st = server.Start();
  if (!st.ok()) {
    std::cerr << "lyric_serverd: start failed: " << st.ToString() << "\n";
    return 1;
  }
  std::cout << "lyric_serverd: listening on " << opt.host << ":"
            << server.port()
            << (opt.config.scheduler.Any() ? " (admission limits on)" : "")
            << (store ? " [store-backed]" : "") << std::endl;

  if (!opt.port_file.empty()) {
    st = lyric::storage::AtomicWriteFile(opt.port_file,
                                         std::to_string(server.port()) + "\n");
    if (!st.ok()) {
      std::cerr << "lyric_serverd: port-file write failed: " << st.ToString()
                << "\n";
      server.Stop();
      return 1;
    }
  }

  // -- lifecycle -----------------------------------------------------------
  AwaitSignal(-1);
  std::cout << "lyric_serverd: draining (" << server.in_flight_queries()
            << " queries in flight, " << server.active_sessions()
            << " sessions)" << std::endl;
  server.BeginDrain();

  // Phase 1: every accepted query gets its response delivered. Phase 2:
  // linger until the (now shed-only) clients hang up, so their last
  // response is never cut off mid-write by Stop. Both phases share the
  // deadline and abort on a second signal.
  const auto deadline = lyric::DeadlineAfterMs(
      std::chrono::steady_clock::now(), opt.drain_deadline_ms);
  bool forced = false;
  for (;;) {
    const bool idle = server.in_flight_queries() == 0 &&
                      server.active_sessions() == 0;
    if (idle) break;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      std::cerr << "lyric_serverd: drain deadline ("
                << opt.drain_deadline_ms << "ms) exceeded, forcing stop\n";
      forced = true;
      break;
    }
    // Wake early for a second signal; otherwise re-check at 20ms —
    // WaitForDrainIdle covers the queries, the poll covers sessions.
    server.WaitForDrainIdle(1);
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    const int slice =
        static_cast<int>(std::min<int64_t>(20, remaining.count()));
    if (AwaitSignal(slice > 0 ? slice : 0) > 0) {
      std::cerr << "lyric_serverd: second signal, forcing stop\n";
      forced = true;
      break;
    }
  }

  std::cout << "lyric_serverd: shutting down (" << server.sessions_opened()
            << " sessions served)" << std::endl;
  server.Stop();

  if (store) {
    // Checkpoint inside Close compacts the WAL; failure is logged, not
    // fatal — acknowledged commits are already durable in the WAL.
    Status closed = store->Close();
    if (!closed.ok()) {
      std::cerr << "lyric_serverd: store close: " << closed.ToString() << "\n";
    }
  }
  return forced ? 3 : 0;
}
