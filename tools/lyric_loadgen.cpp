// lyric_loadgen: replay the paper query suite against lyric_serverd at
// configurable concurrency and rate, verifying every response against a
// direct in-process evaluation and emitting BENCH_server.json.
//
//   lyric_loadgen [--clients 1,8,64] [--rounds 5] [--qps 0]
//                 [--scale 12] [--max-concurrent 0]
//                 [--retries 8] [--retry-base-ms 1]
//                 [--connect HOST:PORT]
//                 [--out BENCH_server.json]
//
// The tool starts an in-process server over the Figure 2 office database
// (scaled with --scale extra desks), pre-computes the expected
// serial-evaluation fingerprint for every suite query, then for each
// client count spawns that many threads, each owning one net::Client.
// Every response's Fingerprint() must byte-match the expectation —
// a mismatch is a correctness failure and the exit code is non-zero.
//
// With --connect HOST:PORT no in-process server is started: the load is
// driven against a running lyric_serverd (which must serve the same
// office database at the same --scale, e.g. one hydrated from a store
// seeded by this tool's suite). The chaos harness and the operating
// docs use this mode; reconnects and in_flight_at_disconnect in the
// JSON tell how the external server's restarts/drains treated us.
//
// With --max-concurrent > 0 the server's scheduler sheds under the
// 64-client burst; clients absorb sheds with their RetryPolicy (honoring
// retry-after hints), and responses that still end shed after the final
// retry are counted (shed_final) rather than failed — a shed is the
// admission contract working, not a wrong answer.
//
// Numeric flags take decimal digits only (--clients a comma-separated
// list of them), within each flag's range; any bad flag prints the usage
// and exits 2.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "exec/scheduler.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "office/office_db.h"
#include "query/evaluator.h"
#include "util/string_util.h"

namespace {

using lyric::Database;
using lyric::Evaluator;
using lyric::Result;
using lyric::ResultSet;
using lyric::Status;

/// The §4.1 worked examples plus a scaled-database sweep.
const char* kSuite[] = {
    "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
    "SELECT CO, ((u, v) | E(w, z) and D(w, z, x, y, u, v) and x = 6 and "
    "y = 4) FROM Office_Object CO WHERE CO.extent[E] and CO.translation[D]",
    "SELECT O FROM Object_in_Room O "
    "WHERE O.location[L] and L(x, y) |= x <= 12",
    "SELECT O FROM Object_in_Room O",
};
constexpr size_t kSuiteSize = sizeof(kSuite) / sizeof(kSuite[0]);

struct Options {
  std::vector<int> client_counts = {1, 8, 64};
  int rounds = 5;
  uint64_t qps = 0;  // 0 = unpaced
  int scale = 12;
  uint64_t max_concurrent = 0;  // 0 = unlimited (no shedding)
  uint64_t queue_capacity = 0;  // 0 = scheduler default
  uint32_t retries = 8;
  uint64_t retry_base_ms = 1;
  std::string connect;  // "host:port" -> drive an external server
  std::string out = "BENCH_server.json";
};

// The largest --clients entry: far more threads than any host's cores.
constexpr uint64_t kMaxThreads = 256;
constexpr uint64_t kNoMax = std::numeric_limits<uint64_t>::max();
// At most one request per microsecond, the pacing clock's resolution.
constexpr uint64_t kMaxQps = 1000000;

void PrintUsage() {
  std::cerr << "usage: lyric_loadgen [--clients 1,8,64] [--rounds N] "
               "[--qps Q] [--scale N] "
               "[--max-concurrent N] [--queue-capacity N] [--retries N] "
               "[--retry-base-ms MS] [--connect HOST:PORT] [--out FILE]\n";
}

// `text` as a decimal number in [lo, hi]; nullopt (with a message naming
// `flag`) otherwise.
std::optional<uint64_t> ParseFlagNumber(const char* flag,
                                        const std::string& text,
                                        uint64_t lo, uint64_t hi) {
  const std::optional<uint64_t> n = lyric::ParseUint64(text);
  if (n.has_value() && *n >= lo && *n <= hi) return n;
  std::cerr << "loadgen: " << flag << " takes a number in [" << lo << ", "
            << hi << "], not '" << text << "'\n";
  return std::nullopt;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "loadgen: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    // Reads numeric `flag`'s value into n: decimal digits in [lo, hi].
    uint64_t n = 0;
    auto number = [&](const char* flag, uint64_t lo, uint64_t hi) {
      const char* v = next(flag);
      if (v == nullptr) return false;
      const std::optional<uint64_t> parsed = ParseFlagNumber(flag, v, lo, hi);
      if (parsed.has_value()) n = *parsed;
      return parsed.has_value();
    };
    constexpr uint64_t kMaxInt = std::numeric_limits<int>::max();
    if (arg == "--clients") {
      const char* v = next("--clients");
      if (v == nullptr) return false;
      opt->client_counts.clear();
      std::stringstream ss(v);
      std::string item;
      while (std::getline(ss, item, ',')) {
        const std::optional<uint64_t> count =
            ParseFlagNumber("--clients", item, 1, kMaxThreads);
        if (!count.has_value()) return false;
        opt->client_counts.push_back(static_cast<int>(*count));
      }
    } else if (arg == "--rounds") {
      if (!number("--rounds", 0, kMaxInt)) return false;
      opt->rounds = static_cast<int>(n);
    } else if (arg == "--qps") {
      if (!number("--qps", 0, kMaxQps)) return false;
      opt->qps = n;
    } else if (arg == "--scale") {
      if (!number("--scale", 0, kMaxInt)) return false;
      opt->scale = static_cast<int>(n);
    } else if (arg == "--max-concurrent") {
      if (!number("--max-concurrent", 0, kNoMax)) return false;
      opt->max_concurrent = n;
    } else if (arg == "--queue-capacity") {
      if (!number("--queue-capacity", 0, kNoMax)) return false;
      opt->queue_capacity = n;
    } else if (arg == "--retries") {
      if (!number("--retries", 0, std::numeric_limits<uint32_t>::max())) {
        return false;
      }
      opt->retries = static_cast<uint32_t>(n);
    } else if (arg == "--retry-base-ms") {
      if (!number("--retry-base-ms", 0, kNoMax)) return false;
      opt->retry_base_ms = n;
    } else if (arg == "--connect") {
      const char* v = next("--connect");
      if (v == nullptr) return false;
      opt->connect = v;
    } else if (arg == "--out") {
      const char* v = next("--out");
      if (v == nullptr) return false;
      opt->out = v;
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::cerr << "loadgen: unknown flag " << arg << "\n";
      return false;
    }
  }
  return true;
}

/// What one client thread observed over the whole run.
struct WorkerResult {
  std::vector<uint64_t> latencies_us;
  uint64_t ok = 0;
  uint64_t shed_final = 0;   ///< Shed even after the last retry.
  uint64_t mismatches = 0;   ///< Fingerprint diverged — a real bug.
  uint64_t errors = 0;       ///< Transport/protocol failures.
  lyric::net::ClientStats client_stats;
};

uint64_t Percentile(std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    PrintUsage();
    return 2;
  }

  Database db;
  auto ids = lyric::office::BuildOfficeDatabase(&db);
  if (!ids.ok()) {
    std::cerr << "loadgen: office db: " << ids.status().ToString() << "\n";
    return 2;
  }
  if (opt.scale > 0) {
    Status st = lyric::office::AddScaledDesks(&db, opt.scale, /*seed=*/7);
    if (!st.ok()) {
      std::cerr << "loadgen: scale: " << st.ToString() << "\n";
      return 2;
    }
  }

  // Expected fingerprints from direct in-process evaluation. Evaluating
  // against the same Database the server serves is safe: the suite is
  // read-only and CST interning is content-addressed (order-independent).
  std::vector<std::string> expected(kSuiteSize);
  for (size_t i = 0; i < kSuiteSize; ++i) {
    Evaluator ev(&db);
    expected[i] =
        lyric::net::ResponseFromResult(ev.Execute(kSuite[i])).Fingerprint();
  }

  lyric::exec::SchedulerLimits limits;
  if (opt.max_concurrent > 0) limits.max_concurrent = opt.max_concurrent;
  if (opt.queue_capacity > 0) limits.queue_capacity = opt.queue_capacity;
  lyric::exec::QueryScheduler scheduler(limits);

  // --connect drives a running lyric_serverd; otherwise the load runs
  // against an in-process server over the same database.
  std::string target_host = "127.0.0.1";
  uint16_t target_port = 0;
  std::unique_ptr<lyric::net::Server> server;
  if (!opt.connect.empty()) {
    const size_t colon = opt.connect.rfind(':');
    const std::optional<uint64_t> port =
        colon == std::string::npos
            ? std::nullopt
            : ParseFlagNumber("--connect port", opt.connect.substr(colon + 1),
                              1, 65535);
    if (!port.has_value()) {
      std::cerr << "loadgen: --connect wants HOST:PORT, got '" << opt.connect
                << "'\n";
      PrintUsage();
      return 2;
    }
    target_host = opt.connect.substr(0, colon);
    target_port = static_cast<uint16_t>(*port);
  } else {
    lyric::net::ServerOptions server_options;
    server_options.eval.scheduler = &scheduler;
    server = std::make_unique<lyric::net::Server>(&db, server_options);
    Status st = server->Start();
    if (!st.ok()) {
      std::cerr << "loadgen: server start: " << st.ToString() << "\n";
      return 2;
    }
    target_port = server->port();
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"server\",\n";
  json << "  \"suite_queries\": " << kSuiteSize << ",\n";
  json << "  \"rounds\": " << opt.rounds << ",\n";
  json << "  \"scale\": " << opt.scale << ",\n";
  json << "  \"max_concurrent\": " << opt.max_concurrent << ",\n";
  json << "  \"configs\": [\n";

  bool failed = false;
  for (size_t cfg = 0; cfg < opt.client_counts.size(); ++cfg) {
    const int n_clients = opt.client_counts[cfg];
    std::vector<WorkerResult> results(static_cast<size_t>(n_clients));
    const auto wall_start = std::chrono::steady_clock::now();
    {
      std::vector<std::thread> workers;
      workers.reserve(static_cast<size_t>(n_clients));
      for (int c = 0; c < n_clients; ++c) {
        workers.emplace_back([&, c] {
          WorkerResult& wr = results[static_cast<size_t>(c)];
          lyric::net::ClientOptions copt;
          copt.host = target_host;
          copt.port = target_port;
          copt.retry.max_retries = opt.retries;
          copt.retry.base_backoff_ms = opt.retry_base_ms;
          copt.retry.seed = static_cast<uint64_t>(c) + 1;
          lyric::net::Client client(copt);
          const auto interval =
              opt.qps > 0 ? std::chrono::microseconds(static_cast<int64_t>(
                                1000000 / opt.qps))
                          : std::chrono::microseconds(0);
          auto next_tick = std::chrono::steady_clock::now();
          for (int round = 0; round < opt.rounds; ++round) {
            for (size_t q = 0; q < kSuiteSize; ++q) {
              if (interval.count() > 0) {
                std::this_thread::sleep_until(next_tick);
                next_tick += interval;
              }
              const auto t0 = std::chrono::steady_clock::now();
              Result<lyric::net::QueryResponse> resp =
                  client.Execute(kSuite[q]);
              const auto t1 = std::chrono::steady_clock::now();
              wr.latencies_us.push_back(static_cast<uint64_t>(
                  std::chrono::duration_cast<std::chrono::microseconds>(t1 -
                                                                        t0)
                      .count()));
              if (!resp.ok()) {
                ++wr.errors;
                continue;
              }
              if (resp->status.IsUnavailable()) {
                ++wr.shed_final;
                continue;
              }
              if (resp->Fingerprint() == expected[q]) {
                ++wr.ok;
              } else {
                ++wr.mismatches;
              }
            }
          }
          wr.client_stats = client.stats();
        });
      }
      for (std::thread& t : workers) t.join();
    }
    const uint64_t wall_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - wall_start)
            .count());

    std::vector<uint64_t> latencies;
    uint64_t ok = 0, shed_final = 0, mismatches = 0, errors = 0;
    uint64_t shed_responses = 0, wire_sends = 0, requests = 0;
    uint64_t reconnects = 0, in_flight_at_disconnect = 0;
    for (const WorkerResult& wr : results) {
      latencies.insert(latencies.end(), wr.latencies_us.begin(),
                       wr.latencies_us.end());
      ok += wr.ok;
      shed_final += wr.shed_final;
      mismatches += wr.mismatches;
      errors += wr.errors;
      shed_responses += wr.client_stats.shed_responses;
      wire_sends += wr.client_stats.sends;
      requests += wr.client_stats.requests;
      reconnects += wr.client_stats.reconnects;
      in_flight_at_disconnect += wr.client_stats.in_flight_at_disconnect;
    }
    std::sort(latencies.begin(), latencies.end());
    const uint64_t p50 = Percentile(latencies, 0.50);
    const uint64_t p99 = Percentile(latencies, 0.99);

    if (mismatches > 0 || errors > 0) failed = true;

    json << "    {\"clients\": " << n_clients << ", \"requests\": " << requests
         << ", \"wire_sends\": " << wire_sends << ", \"ok\": " << ok
         << ", \"shed_responses\": " << shed_responses
         << ", \"shed_final\": " << shed_final
         << ", \"mismatches\": " << mismatches << ", \"errors\": " << errors
         << ", \"reconnects\": " << reconnects
         << ", \"in_flight_at_disconnect\": " << in_flight_at_disconnect
         << ", \"p50_us\": " << p50 << ", \"p99_us\": " << p99
         << ", \"wall_ms\": " << wall_ms << "}"
         << (cfg + 1 < opt.client_counts.size() ? "," : "") << "\n";

    std::cout << "clients=" << n_clients << " requests=" << requests
              << " ok=" << ok << " shed=" << shed_responses << " (final "
              << shed_final << ") mismatches=" << mismatches
              << " errors=" << errors << " reconnects=" << reconnects
              << " in_flight_at_disconnect=" << in_flight_at_disconnect
              << " p50=" << p50 << "us p99=" << p99
              << "us wall=" << wall_ms << "ms\n";
  }

  json << "  ]\n}\n";
  if (server) server->Stop();

  std::ofstream out(opt.out);
  if (!out) {
    std::cerr << "loadgen: cannot write " << opt.out << "\n";
    return 2;
  }
  out << json.str();
  std::cout << "wrote " << opt.out << "\n";

  if (failed) {
    std::cerr << "loadgen: FAILED (mismatches or transport errors)\n";
    return 1;
  }
  return 0;
}
