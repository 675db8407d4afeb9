// lyric_shell — an interactive LyriC session.
//
//   $ lyric_shell [database.lyricdb]
//   lyric> SELECT Y FROM Desk X WHERE X.drawer.extent[Y];
//   lyric> .classes
//   lyric> .save office.lyricdb
//
// Dot commands:
//   .help                this text
//   .classes             list schema classes
//   .schema CLASS        show one class definition
//   .objects [CLASS]     list stored objects (optionally of one class)
//   .office              load the bundled Figure 1/2 office database
//   .analyze QUERY       run the static analyzer only
//   .check QUERY         lint: diagnostics with carets + §3 families
//   .stats               engine counters accumulated this session
//   .metrics [prom|json] [PATH]
//                        dump the metrics registry (Prometheus text or
//                        JSON), to stdout or PATH
//   .log [N]             last N per-query log records as JSONL
//   .profile QUERY       run QUERY with tracing: stage breakdown + counters
//   .trace on PATH       write a Chrome trace JSON per query to PATH
//   .trace off           stop writing traces
//   .cache [N|clear]     solver memo cache: stats, re-bound, or clear
//   .deadline [MS|off]   show or set the per-query wall-clock deadline
//   .budget [BYTES|off]  show or set the per-query kernel memory budget
//   .admit [MAX [QUEUE [TIMEOUT_MS]]] | off
//                        admission control: cap concurrent queries,
//                        bound the wait queue, show live scheduler state
//   .load PATH / .save PATH
//   .open PATH           attach a crash-safe paged store (docs/STORAGE.md):
//                        a non-empty store loads into the session; an empty
//                        one is seeded from the session database
//   .checkpoint          rewrite the attached store from the session
//                        database and checkpoint it (fsynced, WAL truncated)
//   .close               checkpoint and detach the store
//   .quit
// Anything else is parsed as a LyriC query and evaluated.
//
// Every statement runs inside an exception firewall: an unexpected throw
// (including std::bad_alloc) reports an error and returns to the prompt
// with the database intact, instead of killing the session.

#include <exception>
#include <fstream>
#include <iostream>
#include <new>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "config/config.h"
#include "constraint/solver_cache.h"
#include "exec/scheduler.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "office/office_db.h"
#include "query/analyzer.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "storage/paged_store.h"
#include "storage/serializer.h"
#include "util/fault.h"
#include "util/string_util.h"

using namespace lyric;  // NOLINT - tool code.

namespace {

// .checkpoint/.close: make the attached store mirror the session
// database exactly — delete every record, re-import, checkpoint. The
// deletes and the re-import land in one commit, so a crash mid-rewrite
// recovers either the old snapshot or the new one, never a blend.
Status RewriteStore(storage::PagedStore* store, Database& db) {
  std::vector<std::string> keys;
  LYRIC_RETURN_NOT_OK(
      store->Scan("", [&](std::string_view k, std::string_view) {
        keys.emplace_back(k);
        return Result<bool>(true);
      }));
  for (const std::string& k : keys) {
    LYRIC_RETURN_NOT_OK(store->Delete(k));
  }
  LYRIC_RETURN_NOT_OK(store->ImportDatabase(db));
  return store->Checkpoint();
}

void PrintClasses(const Database& db) {
  for (const std::string& name : db.schema().ClassNames()) {
    std::cout << "  " << name << "\n";
  }
}

void PrintSchema(const Database& db, const std::string& cls) {
  auto def = db.schema().GetClass(cls);
  if (!def.ok()) {
    std::cout << def.status() << "\n";
    return;
  }
  std::cout << "CLASS " << (*def)->name;
  if (!(*def)->interface_vars.empty()) {
    std::cout << " (" << Join((*def)->interface_vars, ", ") << ")";
  }
  if (!(*def)->parents.empty()) {
    std::cout << " ISA " << Join((*def)->parents, ", ");
  }
  std::cout << "\n";
  auto attrs = db.schema().AllAttributes(cls);
  if (attrs.ok()) {
    for (const AttributeDef* a : *attrs) {
      std::cout << "  " << a->name << (a->set_valued ? "*" : "") << " : "
                << (a->IsCst() ? "CST" : a->target_class);
      if (!a->variables.empty()) {
        std::cout << " (" << Join(a->variables, ", ") << ")";
      }
      std::cout << "\n";
    }
  }
  for (const std::string& m :
       db.methods().VisibleMethods(db.schema(), cls)) {
    std::cout << "  " << m << "()  [method]\n";
  }
}

void PrintObjects(const Database& db, const std::string& cls) {
  std::vector<Oid> oids =
      cls.empty() ? db.AllObjects() : db.Extent(cls);
  for (const Oid& oid : oids) {
    auto c = db.ClassOf(oid);
    std::cout << "  " << oid.ToString() << " : "
              << (c.ok() ? *c : std::string("?")) << "\n";
  }
  std::cout << "(" << oids.size() << " objects, " << db.CstCount()
            << " constraints interned)\n";
}

// Parses a `.deadline`/`.budget` argument; prints usage on garbage.
void SetLimit(const std::string& cmd, const std::string& arg,
              const char* unit, std::optional<uint64_t>* limit) {
  if (arg.empty()) {
    if (limit->has_value()) {
      std::cout << cmd << " = " << **limit << unit << "\n";
    } else {
      std::cout << cmd << " = off\n";
    }
    return;
  }
  if (arg == "off") {
    limit->reset();
    std::cout << cmd << " = off\n";
    return;
  }
  const std::optional<uint64_t> n = ParseUint64(arg);
  if (!n.has_value() || *n == 0) {
    std::cout << "usage: " << cmd << " [N|off]\n";
    return;
  }
  *limit = n;
  std::cout << cmd << " = " << *n << unit << "\n";
}

std::string LimitToString(const std::optional<uint64_t>& v,
                          const char* unit) {
  return v.has_value() ? std::to_string(*v) + unit : std::string("off");
}

// The operator's live view: the knobs `.deadline`/`.budget`/`.cache`/
// `.admit` actually apply to the next statement, plus the
// process-wide scheduler ledger — so `.stats` shows effective limits, not
// just counters.
void PrintEffectiveLimits(const EvalOptions& session) {
  exec::QueryScheduler& sched = exec::QueryScheduler::Global();
  exec::SchedulerLimits sl = sched.limits();
  std::cout << "effective limits:\n"
            << "  deadline = " << LimitToString(session.deadline_ms, "ms")
            << " | budget = " << LimitToString(session.memory_budget, "B")
            << " | cache = " << SolverCache::Global().capacity()
            << " entries\n"
            << "  admit: max_concurrent = "
            << LimitToString(sl.max_concurrent, "")
            << " | queue = " << LimitToString(sl.queue_capacity, "")
            << " | timeout = " << LimitToString(sl.queue_timeout_ms, "ms")
            << " | ledger = " << LimitToString(sl.max_total_memory, "B")
            << "\n  retry: max = " << session.retry.max_retries
            << " | base = " << session.retry.base_backoff_ms << "ms\n  "
            << sched.stats().ToString() << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Config config = Config::FromEnv();
  config.Apply();
  Database db;
  if (auto st = RegisterBuiltinCstMethods(&db); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  if (argc > 1) {
    Database fresh;
    if (auto st = Serializer::LoadFromFile(argv[1], &fresh); !st.ok()) {
      std::cerr << "could not load " << argv[1] << ": " << st << "\n";
      return 1;
    }
    db = std::move(fresh);
    (void)RegisterBuiltinCstMethods(&db);
    std::cout << "loaded " << db.ObjectCount() << " objects from "
              << argv[1] << "\n";
  }

  std::cout << "LyriC shell — .help for commands, .quit to exit\n";
  std::string line;
  std::string pending;
  std::string trace_path;  // non-empty: write a Chrome trace per query
  // Every statement runs under these options: the environment's
  // deadline, budget and retry policy, as `.deadline`/`.budget` change
  // them.
  EvalOptions session = config.Eval();
  // Attached crash-safe paged store (.open / .checkpoint / .close).
  std::unique_ptr<storage::PagedStore> pstore;
  while (true) {
    std::cout << (pending.empty() ? "lyric> " : "  ...> ") << std::flush;
    if (!std::getline(std::cin, line)) break;
    // Per-statement exception firewall: break/continue below leave the
    // try block normally; only a throw reaches the handlers, which report
    // and return to the prompt with the session state intact.
    try {
    if (fault::Enabled() && fault::Inject(fault::kSiteShell)) {
      // Simulated allocation failure inside statement execution.
      throw std::bad_alloc();
    }
    // Dot commands act immediately.
    if (pending.empty() && !line.empty() && line[0] == '.') {
      std::istringstream ss(line);
      std::string cmd, arg;
      ss >> cmd;
      std::getline(ss, arg);
      while (!arg.empty() && arg.front() == ' ') arg.erase(arg.begin());
      if (cmd == ".quit" || cmd == ".exit") break;
      if (cmd == ".help") {
        std::cout << "  .classes | .schema CLASS | .objects [CLASS] | "
                     ".office | .analyze QUERY | .load PATH | .save PATH | "
                     ".quit\n  .check QUERY         lint the query: LY0xx "
                     "diagnostics with carets,\n                       "
                     "inferred §3 constraint families, variable classes\n"
                     "  .stats               engine counters for this "
                     "session\n"
                     "  .metrics [prom|json] [PATH]\n"
                     "                       dump the metrics registry "
                     "(Prometheus text or JSON)\n"
                     "  .log [N]             last N per-query log records "
                     "as JSONL (default 10)\n"
                     "  .profile QUERY       stage timings + counter "
                     "deltas for one query\n  .trace on PATH       write a "
                     "Chrome trace JSON per query to PATH\n  .trace off       "
                     "    stop writing traces\n"
                     "  .cache [N|clear]     solver memo cache: show stats, "
                     "re-bound to N\n                       entries (0 "
                     "disables), or drop all entries\n  .deadline [MS|off]   "
                     "per-query wall-clock deadline; a query that\n           "
                     "            exceeds it returns its partial rows\n"
                     "  .budget [BYTES|off]  per-query kernel memory budget\n"
                     "  .admit [MAX [QUEUE [TIMEOUT_MS]]] | .admit off\n"
                     "                       admission control: cap "
                     "concurrent queries, bound\n                       "
                     "the wait queue; bare .admit shows live state\n"
                     "  .open PATH | .checkpoint | .close\n"
                     "                       crash-safe paged store: attach "
                     "(load or seed),\n                       sync the "
                     "session into it, detach (docs/STORAGE.md)\n"
                     "  anything else: a LyriC query ending in ';'\n";
      } else if (cmd == ".stats") {
        std::cout << obs::Registry::Global().Snapshot().ToString();
        PrintEffectiveLimits(session);
      } else if (cmd == ".metrics") {
        std::istringstream as(arg);
        std::string fmt, path;
        as >> fmt >> path;
        if (fmt.empty()) fmt = "prom";
        if (fmt != "prom" && fmt != "json") {
          std::cout << "usage: .metrics [prom|json] [PATH]\n";
        } else {
          const std::string dump =
              fmt == "prom" ? obs::Registry::Global().ExportPrometheus()
                            : obs::Registry::Global().ExportJson();
          if (path.empty()) {
            std::cout << dump;
          } else {
            std::ofstream out(path, std::ios::trunc);
            if (out) {
              out << dump;
              std::cout << "(metrics written to " << path << ")\n";
            } else {
              std::cout << "(could not open " << path << ")\n";
            }
          }
        }
      } else if (cmd == ".log") {
        size_t n = 10;
        bool ok_arg = true;
        if (!arg.empty()) {
          const std::optional<uint64_t> v = ParseUint64(arg);
          if (!v.has_value() || *v == 0) {
            std::cout << "usage: .log [N]\n";
            ok_arg = false;
          } else {
            n = static_cast<size_t>(*v);
          }
        }
        if (ok_arg) {
          obs::QueryLog& qlog = obs::QueryLog::Global();
          std::vector<obs::QueryLogRecord> recent = qlog.Recent(n);
          if (recent.empty()) {
            std::cout << "(query log empty)\n";
          } else {
            for (const obs::QueryLogRecord& rec : recent) {
              std::cout << rec.ToJson() << "\n";
            }
            std::cout << "(" << recent.size() << " of "
                      << qlog.total_appended() << " records)\n";
          }
        }
      } else if (cmd == ".deadline") {
        SetLimit(".deadline", arg, "ms", &session.deadline_ms);
      } else if (cmd == ".budget") {
        SetLimit(".budget", arg, "B", &session.memory_budget);
      } else if (cmd == ".admit") {
        exec::QueryScheduler& sched = exec::QueryScheduler::Global();
        if (arg.empty()) {
          PrintEffectiveLimits(session);
        } else if (arg == "off") {
          sched.Configure(exec::SchedulerLimits{});
          std::cout << "admission control off\n";
        } else {
          std::istringstream as(arg);
          std::vector<uint64_t> values;
          bool valid = true;
          for (std::string word; as >> word;) {
            const std::optional<uint64_t> v = ParseUint64(word);
            valid = valid && v.has_value();
            values.push_back(v.value_or(0));
          }
          if (!valid || values.empty() || values.size() > 3 ||
              values[0] == 0) {
            std::cout << "usage: .admit [MAX [QUEUE [TIMEOUT_MS]]] | "
                         ".admit off\n";
          } else {
            exec::SchedulerLimits sl = sched.limits();
            sl.max_concurrent = values[0];
            if (values.size() > 1) sl.queue_capacity = values[1];
            if (values.size() > 2) sl.queue_timeout_ms = values[2];
            sched.Configure(sl);
            std::cout << "admit: max_concurrent = "
                      << LimitToString(sl.max_concurrent, "")
                      << " | queue = "
                      << LimitToString(sl.queue_capacity, "")
                      << " | timeout = "
                      << LimitToString(sl.queue_timeout_ms, "ms") << "\n";
          }
        }
      } else if (cmd == ".cache") {
        SolverCache& cache = SolverCache::Global();
        if (arg.empty()) {
          std::cout << cache.stats().ToString() << "\n";
        } else if (arg == "clear") {
          cache.Clear();
          std::cout << "cache cleared\n";
        } else {
          const std::optional<uint64_t> n = ParseUint64(arg);
          if (!n.has_value()) {
            std::cout << "usage: .cache | .cache CAPACITY | .cache clear\n";
          } else {
            cache.set_capacity(static_cast<size_t>(*n));
            std::cout << cache.stats().ToString() << "\n";
          }
        }
      } else if (cmd == ".profile") {
        EvalOptions opts = session;
        opts.collect_trace = true;
        Evaluator ev(&db, opts);
        auto r = ev.Execute(arg);
        if (!r.ok()) {
          std::cout << r.status() << "\n";
          continue;
        }
        std::cout << r->ToString() << "\n";
        if (r->profile() != nullptr) {
          std::cout << r->profile()->ToString();
        }
      } else if (cmd == ".trace") {
        std::istringstream as(arg);
        std::string mode, path;
        as >> mode >> path;
        if (mode == "off") {
          trace_path.clear();
          std::cout << "tracing off\n";
        } else if (mode == "on" && !path.empty()) {
          trace_path = path;
          std::cout << "tracing to " << trace_path << "\n";
        } else {
          std::cout << "usage: .trace on PATH | .trace off\n";
        }
      } else if (cmd == ".classes") {
        PrintClasses(db);
      } else if (cmd == ".schema") {
        PrintSchema(db, arg);
      } else if (cmd == ".objects") {
        PrintObjects(db, arg);
      } else if (cmd == ".office") {
        Database fresh;
        auto ids = office::BuildOfficeDatabase(&fresh);
        if (ids.ok()) {
          db = std::move(fresh);
          (void)RegisterBuiltinCstMethods(&db);
          std::cout << "office database loaded\n";
        } else {
          std::cout << ids.status() << "\n";
        }
      } else if (cmd == ".check") {
        CheckResult check = CheckQueryText(db, arg);
        if (check.diagnostics.empty()) {
          std::cout << "clean: no findings\n";
        } else {
          std::cout << RenderDiagnostics(arg, check.diagnostics);
        }
        for (const auto& [var, cls] : check.var_classes) {
          std::cout << "  " << var << " : " << cls << "\n";
        }
        size_t errors = CountSeverity(check.diagnostics, Severity::kError);
        std::cout << (errors == 0 ? "ok" : "failed") << " ("
                  << errors << " error" << (errors == 1 ? "" : "s") << ", "
                  << CountSeverity(check.diagnostics, Severity::kWarning)
                  << " warnings, "
                  << CountSeverity(check.diagnostics, Severity::kNote)
                  << " notes)\n";
      } else if (cmd == ".analyze") {
        auto q = ParseQuery(arg);
        if (!q.ok()) {
          std::cout << q.status() << "\n";
          continue;
        }
        Analyzer an(&db);
        auto r = an.Analyze(*q);
        if (!r.ok()) {
          std::cout << r.status() << "\n";
          continue;
        }
        for (const auto& [var, cls] : r->var_classes) {
          std::cout << "  " << var << " : " << cls << "\n";
        }
        for (const std::string& w : r->warnings) {
          std::cout << "  warning: " << w << "\n";
        }
        std::cout << "ok\n";
      } else if (cmd == ".load") {
        // Transient (injected) load failures are retryable: each attempt
        // parses into its own scratch database (all-or-nothing), so a
        // retry always starts clean.
        Database fresh;
        auto st = exec::RunWithRetry(session.retry, [&] {
          Database scratch;
          Status attempt = Serializer::LoadFromFile(arg, &scratch);
          if (attempt.ok()) fresh = std::move(scratch);
          return attempt;
        });
        if (st.ok()) {
          db = std::move(fresh);
          (void)RegisterBuiltinCstMethods(&db);
          std::cout << "loaded " << db.ObjectCount() << " objects\n";
        } else {
          std::cout << st << "\n";
        }
      } else if (cmd == ".save") {
        auto st = exec::RunWithRetry(
            session.retry, [&] { return Serializer::SaveToFile(db, arg); });
        std::cout << (st.ok() ? "saved" : st.ToString()) << "\n";
      } else if (cmd == ".open") {
        if (arg.empty()) {
          std::cout << "usage: .open PATH\n";
        } else if (pstore != nullptr) {
          std::cout << "a store is already attached (" << pstore->path()
                    << "); .close it first\n";
        } else {
          auto store_or = storage::PagedStore::Open({.path = arg});
          if (!store_or.ok()) {
            std::cout << store_or.status() << "\n";
          } else {
            pstore = std::move(*store_or);
            const storage::RecoveryInfo& rec = pstore->recovery();
            if (rec.committed_txns > 0 || rec.torn_tail_bytes > 0) {
              std::cout << "recovered " << rec.committed_txns
                        << " committed transaction(s), " << rec.images_applied
                        << " page(s); ignored " << rec.torn_tail_bytes
                        << " torn byte(s)\n";
            }
            if (pstore->RecordCount() > 0) {
              // Non-empty store: its contents become the session.
              Database fresh;
              Status st = pstore->ExportToDatabase(&fresh);
              if (!st.ok()) {
                std::cout << st << "\n";
                pstore.reset();
              } else {
                db = std::move(fresh);
                (void)RegisterBuiltinCstMethods(&db);
                std::cout << "opened " << arg << ": loaded "
                          << db.ObjectCount() << " objects\n";
              }
            } else {
              // Empty store: seed it from the session.
              Status st = pstore->ImportDatabase(db);
              if (st.ok()) st = pstore->Checkpoint();
              if (!st.ok()) {
                std::cout << st << "\n";
                pstore.reset();
              } else {
                std::cout << "opened " << arg << ": seeded with "
                          << db.ObjectCount() << " objects\n";
              }
            }
          }
        }
      } else if (cmd == ".checkpoint") {
        if (pstore == nullptr) {
          std::cout << "no store attached (.open PATH)\n";
        } else {
          Status st = RewriteStore(pstore.get(), db);
          std::cout << (st.ok() ? "checkpointed" : st.ToString()) << "\n";
        }
      } else if (cmd == ".close") {
        if (pstore == nullptr) {
          std::cout << "no store attached\n";
        } else {
          Status st = RewriteStore(pstore.get(), db);
          if (st.ok()) st = pstore->Close();
          pstore.reset();
          std::cout << (st.ok() ? "closed" : st.ToString()) << "\n";
        }
      } else {
        std::cout << "unknown command " << cmd << " (.help)\n";
      }
      continue;
    }
    // Accumulate query text until a ';'.
    pending += line + "\n";
    if (line.find(';') == std::string::npos) continue;
    EvalOptions opts = session;
    opts.collect_trace = !trace_path.empty();
    Evaluator ev(&db, opts);
    auto r = ev.Execute(pending);
    pending.clear();
    if (!r.ok()) {
      std::cout << r.status() << "\n";
      continue;
    }
    if (!trace_path.empty() && r->profile() != nullptr) {
      std::ofstream out(trace_path, std::ios::trunc);
      if (out) {
        out << r->profile()->ToChromeTraceJson();
        std::cout << "(trace written to " << trace_path << ")\n";
      } else {
        std::cout << "(could not open " << trace_path << ")\n";
      }
    }
    std::cout << r->ToString() << "\n";
    for (const std::string& cls : ev.created_classes()) {
      std::cout << "created class " << cls << "\n";
    }
    } catch (const std::bad_alloc&) {
      std::cout << "error: out of memory executing statement; "
                   "session state preserved\n";
      pending.clear();
    } catch (const std::exception& e) {
      std::cout << "error: unexpected exception: " << e.what() << "\n";
      pending.clear();
    } catch (...) {
      std::cout << "error: unknown exception executing statement\n";
      pending.clear();
    }
  }
  return 0;
}
