// Annotated synchronization primitives: the one place in the codebase
// that is allowed to touch std::mutex.
//
// Every shared-state subsystem (server sessions, scheduler ledger,
// storage engine, solver-cache shards, obs registry, query-log ring, CST
// store, variable interner, fault config) locks through the wrappers
// below, for two machine-checked guarantees:
//
//  1. Compile-time lock discipline. The wrappers carry Clang Thread
//     Safety capability attributes, so fields declared
//     LYRIC_GUARDED_BY(mu_) and helpers declared LYRIC_REQUIRES(mu_)
//     turn a wrong-lock access into a build error under
//     -Wthread-safety (the CI thread-safety job builds with
//     -Werror=thread-safety-analysis). Under non-Clang compilers the
//     attributes expand to nothing.
//
//  2. Runtime lock-order checking. Every Mutex carries a LockRank from
//     the documented hierarchy (docs/CONCURRENCY.md); a debug/CI build
//     maintains a thread-local held-lock stack and aborts — with the
//     two offending locks named — the moment a thread acquires a lock
//     whose rank is not strictly greater than everything it already
//     holds. Inversions become deterministic aborts in any test that
//     executes the path once, instead of deadlocks that need two
//     unlucky threads under load. Recursive acquisition of the same
//     lock (UB for std::mutex) aborts the same way.
//
// The companion lint gate (tools/check_lock_discipline, run as a ctest
// and a CI step) rejects raw std::mutex / std::lock_guard /
// std::unique_lock / naked .lock() anywhere outside this header, so the
// two guarantees cannot be bypassed by accident.
//
// The rank checker is compiled in when LYRIC_SYNC_RANK_CHECK is defined
// — the build system defines it globally (option LYRIC_RANK_CHECK,
// default ON) so every translation unit agrees; per-TU toggling would
// be an ODR hazard. The cost is one TLS access plus a scan of the
// (nearly always <4 deep) held-lock stack per acquisition.

#ifndef LYRIC_UTIL_SYNC_H_
#define LYRIC_UTIL_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <shared_mutex>

// -- Clang Thread Safety annotation macros ---------------------------------
//
// Usage conventions (see docs/CONCURRENCY.md for the full recipe):
//   * every field touched by more than one thread: LYRIC_GUARDED_BY(mu_)
//   * every private *Locked() helper: LYRIC_REQUIRES(mu_)
//   * public entry points that take the lock: LYRIC_EXCLUDES(mu_)
//   * condition-variable waits: explicit `while (!cond) cv_.Wait(mu_);`
//     loops, never predicate lambdas (the analysis is intraprocedural
//     and cannot see a lambda's calling context).

#if defined(__clang__)
#define LYRIC_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define LYRIC_THREAD_ANNOTATION_(x)  // no-op under GCC/MSVC
#endif

#define LYRIC_CAPABILITY(x) LYRIC_THREAD_ANNOTATION_(capability(x))
#define LYRIC_SCOPED_CAPABILITY LYRIC_THREAD_ANNOTATION_(scoped_lockable)
#define LYRIC_GUARDED_BY(x) LYRIC_THREAD_ANNOTATION_(guarded_by(x))
#define LYRIC_PT_GUARDED_BY(x) LYRIC_THREAD_ANNOTATION_(pt_guarded_by(x))
#define LYRIC_ACQUIRED_BEFORE(...) \
  LYRIC_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))
#define LYRIC_ACQUIRED_AFTER(...) \
  LYRIC_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))
#define LYRIC_REQUIRES(...) \
  LYRIC_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#define LYRIC_REQUIRES_SHARED(...) \
  LYRIC_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#define LYRIC_ACQUIRE(...) \
  LYRIC_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#define LYRIC_ACQUIRE_SHARED(...) \
  LYRIC_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#define LYRIC_RELEASE(...) \
  LYRIC_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#define LYRIC_RELEASE_SHARED(...) \
  LYRIC_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#define LYRIC_RELEASE_GENERIC(...) \
  LYRIC_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))
#define LYRIC_TRY_ACQUIRE(...) \
  LYRIC_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))
#define LYRIC_EXCLUDES(...) LYRIC_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#define LYRIC_ASSERT_CAPABILITY(x) \
  LYRIC_THREAD_ANNOTATION_(assert_capability(x))
#define LYRIC_RETURN_CAPABILITY(x) LYRIC_THREAD_ANNOTATION_(lock_returned(x))
#define LYRIC_NO_THREAD_SAFETY_ANALYSIS \
  LYRIC_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace lyric {
namespace sync {

/// The process lock hierarchy (docs/CONCURRENCY.md). A thread may only
/// acquire a lock whose rank is STRICTLY GREATER than every ranked lock
/// it already holds; the runtime checker aborts otherwise. Gaps between
/// values leave room for future subsystems without renumbering.
enum class LockRank : int {
  /// Excluded from order checking (tests, short-lived local locks).
  /// Recursive-acquisition detection still applies.
  kUnranked = 0,
  /// lyric_serverd session registry (net/server.h). First: the accept
  /// loop registers/reaps sessions and publishes connection gauges, but
  /// never holds this lock across query evaluation.
  kNetSession = 4,
  /// lyric_serverd writer mutex (net/server.h): serializes CREATE VIEWs
  /// end to end — evaluation, install and the wait for durability — so
  /// at most one write is unacknowledged. Taken before the schema gate,
  /// which the write takes shared and then exclusive under it.
  kNetWriter = 5,
  /// lyric_serverd schema gate (net/server.h): shared for read queries
  /// and a CREATE VIEW's evaluation, exclusive only to install a view and
  /// append it to the store. Held across a whole evaluation, so it must
  /// rank before every lock evaluation can take (scheduler first).
  kNetSchemaGate = 6,
  /// lyric_serverd lifecycle state (net/server.h): in-flight query
  /// count, drain condvar, degraded-mode cause. Above the schema gate
  /// because a failed store append degrades the server to read-only
  /// while still holding the exclusive gate.
  kNetLifecycle = 8,
  /// QueryScheduler admission ledger + wait queue (exec/scheduler.h).
  kScheduler = 10,
  /// PagedStore engine lock (storage/paged_store.h): serializes B-tree
  /// structure changes and batch application. Held across buffer-pool
  /// fetches and WAL appends, so it ranks before both.
  kStorageEngine = 24,
  /// WAL append/group-commit state (storage/wal.h).
  kWal = 26,
  /// Buffer-pool frame table + LRU list (storage/buffer_pool.h).
  kBufferPool = 28,
  /// Database CST interning store (object/database.h).
  kCstStore = 30,
  /// SolverCache per-shard LRU + index (constraint/solver_cache.h).
  /// Only one shard lock is ever held at a time (shards never nest).
  kCacheShard = 35,
  /// obs::Registry metric maps (obs/metrics.h). Ranked after every
  /// subsystem lock so counters/gauges may be resolved under them, and
  /// before the sinks.
  kObsRegistry = 50,
  /// QueryLog ring + JSONL sink (obs/query_log.h). Gauge handles must
  /// be resolved BEFORE taking this lock (registry ranks first).
  kQueryLog = 60,
  /// Variable interner (constraint/variable.cc). Near-leaf: any
  /// subsystem may intern or resolve a name under its own lock.
  kVarInterner = 80,
  /// Built-in class definitions materialized on first lookup
  /// (object/schema.cc). Leaf: any subsystem may look up a class under
  /// its own lock (ExportToDatabase registers classes under the engine
  /// lock), and nothing is taken under it.
  kSchemaBuiltins = 85,
  /// Fault-injection site table (util/fault.cc). Leaf.
  kFaultConfig = 90,
};

namespace internal {

/// One acquired lock on the current thread's stack.
struct HeldLock {
  const void* lock = nullptr;
  int rank = 0;
  const char* name = nullptr;
};

/// Fixed-capacity held-lock stack; depth beyond kMaxDepth aborts (no
/// sane path holds 32 locks).
struct HeldLockStack {
  static constexpr int kMaxDepth = 32;
  HeldLock entries[kMaxDepth];
  int depth = 0;
};

inline HeldLockStack& TlsHeldLocks() {
  thread_local HeldLockStack stack;
  return stack;
}

[[noreturn]] inline void RankAbort(const char* what, const char* acquiring,
                                   int acquiring_rank, const char* held,
                                   int held_rank) {
  std::fprintf(stderr,
               "lyric/sync: %s: acquiring '%s' (rank %d) while holding "
               "'%s' (rank %d)\n",
               what, acquiring, acquiring_rank, held, held_rank);
  std::fflush(stderr);
  std::abort();
}

/// Pre-acquisition check: aborts on recursive acquisition of `lock` or
/// on a rank inversion against any held ranked lock.
inline void CheckAcquire(const void* lock, int rank, const char* name) {
  HeldLockStack& stack = TlsHeldLocks();
  for (int i = 0; i < stack.depth; ++i) {
    const HeldLock& held = stack.entries[i];
    if (held.lock == lock) {
      RankAbort("recursive lock acquisition", name, rank, held.name,
                held.rank);
    }
    if (rank != 0 && held.rank != 0 && held.rank >= rank) {
      RankAbort("lock-order inversion", name, rank, held.name, held.rank);
    }
  }
}

inline void NoteAcquired(const void* lock, int rank, const char* name) {
  HeldLockStack& stack = TlsHeldLocks();
  if (stack.depth >= HeldLockStack::kMaxDepth) {
    std::fprintf(stderr, "lyric/sync: held-lock stack overflow at '%s'\n",
                 name);
    std::fflush(stderr);
    std::abort();
  }
  stack.entries[stack.depth++] = HeldLock{lock, rank, name};
}

inline void NoteReleased(const void* lock) {
  HeldLockStack& stack = TlsHeldLocks();
  // Search from the top: releases are almost always LIFO, but
  // out-of-order release (manual Unlock) is legal.
  for (int i = stack.depth - 1; i >= 0; --i) {
    if (stack.entries[i].lock == lock) {
      for (int j = i; j + 1 < stack.depth; ++j) {
        stack.entries[j] = stack.entries[j + 1];
      }
      --stack.depth;
      return;
    }
  }
}

inline bool IsHeld(const void* lock) {
  const HeldLockStack& stack = TlsHeldLocks();
  for (int i = 0; i < stack.depth; ++i) {
    if (stack.entries[i].lock == lock) return true;
  }
  return false;
}

}  // namespace internal

/// A standard exclusive mutex carrying a thread-safety capability and a
/// lock-hierarchy rank. Non-copyable, non-movable (guarded fields refer
/// to it by address).
class LYRIC_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(LockRank rank, const char* name = "mutex")
      : rank_(static_cast<int>(rank)), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() LYRIC_ACQUIRE() {
#ifdef LYRIC_SYNC_RANK_CHECK
    internal::CheckAcquire(this, rank_, name_);
#endif
    mu_.lock();
#ifdef LYRIC_SYNC_RANK_CHECK
    internal::NoteAcquired(this, rank_, name_);
#endif
  }

  void Unlock() LYRIC_RELEASE() {
#ifdef LYRIC_SYNC_RANK_CHECK
    internal::NoteReleased(this);
#endif
    mu_.unlock();
  }

  bool TryLock() LYRIC_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#ifdef LYRIC_SYNC_RANK_CHECK
    internal::NoteAcquired(this, rank_, name_);
#endif
    return true;
  }

  /// Debug assertion that the calling thread holds this mutex; tells
  /// the static analysis the capability is held either way. No-op when
  /// the rank checker is compiled out.
  void AssertHeld() const LYRIC_ASSERT_CAPABILITY(this) {
#ifdef LYRIC_SYNC_RANK_CHECK
    if (!internal::IsHeld(this)) {
      std::fprintf(stderr, "lyric/sync: AssertHeld failed on '%s'\n", name_);
      std::fflush(stderr);
      std::abort();
    }
#endif
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  // Present unconditionally so layout never depends on the checker
  // macro (mixing checked and unchecked TUs must stay ABI-safe).
  int rank_ = 0;
  const char* name_ = "mutex";
};

/// A reader/writer mutex with the same capability + rank treatment.
class LYRIC_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(LockRank rank, const char* name = "shared_mutex")
      : rank_(static_cast<int>(rank)), name_(name) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() LYRIC_ACQUIRE() {
#ifdef LYRIC_SYNC_RANK_CHECK
    internal::CheckAcquire(this, rank_, name_);
#endif
    mu_.lock();
#ifdef LYRIC_SYNC_RANK_CHECK
    internal::NoteAcquired(this, rank_, name_);
#endif
  }

  void Unlock() LYRIC_RELEASE() {
#ifdef LYRIC_SYNC_RANK_CHECK
    internal::NoteReleased(this);
#endif
    mu_.unlock();
  }

  void LockShared() LYRIC_ACQUIRE_SHARED() {
#ifdef LYRIC_SYNC_RANK_CHECK
    // Shared re-acquisition on the same thread can still deadlock
    // against a queued writer, so it participates in the same checks.
    internal::CheckAcquire(this, rank_, name_);
#endif
    mu_.lock_shared();
#ifdef LYRIC_SYNC_RANK_CHECK
    internal::NoteAcquired(this, rank_, name_);
#endif
  }

  void UnlockShared() LYRIC_RELEASE_SHARED() {
#ifdef LYRIC_SYNC_RANK_CHECK
    internal::NoteReleased(this);
#endif
    mu_.unlock_shared();
  }

  int rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  int rank_ = 0;
  const char* name_ = "shared_mutex";
};

/// RAII exclusive lock over a Mutex.
class LYRIC_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LYRIC_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() LYRIC_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII exclusive lock over a SharedMutex.
class LYRIC_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) LYRIC_ACQUIRE(mu) : mu_(mu) {
    mu_.Lock();
  }
  ~WriterMutexLock() LYRIC_RELEASE() { mu_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII shared (reader) lock over a SharedMutex.
class LYRIC_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) LYRIC_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.LockShared();
  }
  ~ReaderMutexLock() LYRIC_RELEASE_GENERIC() { mu_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// A condition variable bound to sync::Mutex. Waits take the Mutex
/// directly and are annotated LYRIC_REQUIRES(mu), so the analysis knows
/// the lock is held across the wait. Callers write explicit condition
/// loops:
///
///   MutexLock lock(mu_);
///   while (!ready_) cv_.Wait(mu_);
///
/// (never the predicate-lambda overloads of std::condition_variable —
/// the analysis cannot see a lambda's calling context, so guarded-field
/// access inside one would warn).
///
/// The held-lock stack deliberately keeps the mutex entry during a wait:
/// the wait re-acquires before returning, so the lock is held at every
/// point the caller can observe.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks; re-acquires before returning.
  void Wait(Mutex& mu) LYRIC_REQUIRES(mu) {
    std::unique_lock<std::mutex> inner(mu.mu_, std::adopt_lock);
    cv_.wait(inner);
    inner.release();  // Ownership stays with the caller's scope.
  }

  /// Waits until notified or `deadline`. Returns true when the wait
  /// timed out (the caller must re-test its condition either way).
  bool WaitUntil(Mutex& mu, std::chrono::steady_clock::time_point deadline)
      LYRIC_REQUIRES(mu) {
    std::unique_lock<std::mutex> inner(mu.mu_, std::adopt_lock);
    std::cv_status status = cv_.wait_until(inner, deadline);
    inner.release();
    return status == std::cv_status::timeout;
  }

  /// Waits until notified or `timeout` elapses. Returns true on timeout.
  bool WaitFor(Mutex& mu, std::chrono::nanoseconds timeout)
      LYRIC_REQUIRES(mu) {
    return WaitUntil(mu, std::chrono::steady_clock::now() + timeout);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace sync
}  // namespace lyric

#endif  // LYRIC_UTIL_SYNC_H_
