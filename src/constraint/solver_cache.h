// A sharded, size-bounded memo cache for solver verdicts.
//
// The alibi-query case study (Othman, Kuijpers & Grimson; PAPERS.md) shows
// quantifier-elimination and satisfiability cost dominating real
// constraint-database workloads, and LyriC evaluation re-asks the same
// questions constantly: every candidate binding conjoins the same stored
// CST bodies with a per-object location, and entailment's DPLL case split
// re-probes overlapping conjunctions. This cache memoizes the three pure
// solver entry points:
//
//   * simplex satisfiability verdicts   (Conjunction -> bool),
//   * canonical forms                   (Conjunction x level -> Conjunction),
//   * entailment answers                (Conjunction x Dnf -> bool).
//
// Keys are the structural hash of the constraint objects; a hash hit
// always falls back to full structural equality before a cached value is
// returned, so hash collisions can never change an answer. Entries are
// interned VarId-based, which is exact: two structurally equal
// conjunctions denote the same point set, so every cached verdict is
// deterministic and thread-agnostic.
//
// Only complete verdicts are stored: each kernel stores after its
// post-compute governor checkpoint, so a query that trips a limit
// (exec/governor.h) stores nothing for the question it was computing,
// and a repeat of that query computes it again.
//
// The cache is sharded (hash-picked shard, one mutex each) so concurrent
// queries rarely contend, and size-bounded with per-shard LRU
// eviction. Hits/misses/evictions feed the obs metrics registry
// ("solver_cache.*"); lyric_shell's `.cache` prints them.

#ifndef LYRIC_CONSTRAINT_SOLVER_CACHE_H_
#define LYRIC_CONSTRAINT_SOLVER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "constraint/canonical.h"
#include "constraint/dnf.h"
#include "util/sync.h"

namespace lyric {

/// Memoizes solver verdicts keyed by constraint structure. Thread-safe.
class SolverCache {
 public:
  /// Aggregate occupancy and traffic counters.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t size = 0;
    size_t capacity = 0;

    /// hits / (hits + misses), 0 when idle.
    double HitRate() const;
    /// "hits=... misses=... hit_rate=... evictions=... size=.../cap".
    std::string ToString() const;
  };

  /// The process-wide cache consulted by Simplex/Canonical/Entailment.
  /// Initial capacity comes from the LYRIC_CACHE_CAPACITY environment
  /// variable (entries; 0 disables), defaulting to 4096.
  static SolverCache& Global();

  /// A cache bounded at `capacity` entries (0 = disabled: lookups miss,
  /// stores drop). The bound is enforced per shard, so capacities below
  /// the shard count floor at one entry per shard: the effective bound is
  /// max(capacity, kShards).
  explicit SolverCache(size_t capacity);

  SolverCache(const SolverCache&) = delete;
  SolverCache& operator=(const SolverCache&) = delete;

  /// Re-bounds the cache; shrinking evicts LRU entries to fit, capacity 0
  /// clears and disables.
  void set_capacity(size_t capacity);
  size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }
  bool enabled() const { return capacity() > 0; }

  /// Drops every entry (capacity is kept).
  void Clear();

  Stats stats() const;

  /// Lifetime traffic counters, readable without touching shard locks.
  /// The evaluator samples these before and after each query to attribute
  /// hit/miss deltas to its per-query log record.
  struct Traffic {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  Traffic traffic() const {
    Traffic t;
    t.hits = hits_.load(std::memory_order_relaxed);
    t.misses = misses_.load(std::memory_order_relaxed);
    return t;
  }

  // -- The three memoized verdict families ---------------------------------

  std::optional<bool> LookupSat(const Conjunction& c);
  void StoreSat(const Conjunction& c, bool sat);

  std::optional<Conjunction> LookupCanonical(const Conjunction& c,
                                             CanonicalLevel level);
  void StoreCanonical(const Conjunction& c, CanonicalLevel level,
                      const Conjunction& result);

  std::optional<bool> LookupEntails(const Conjunction& lhs, const Dnf& rhs);
  void StoreEntails(const Conjunction& lhs, const Dnf& rhs, bool holds);

  /// Test seam: maps every structural hash through `fn` before bucketing
  /// (e.g. a constant function forces all keys to collide, exercising the
  /// structural-equality fallback). Pass nullptr to restore. Not for
  /// concurrent use with active lookups.
  void SetHashOverrideForTesting(std::function<size_t(size_t)> fn);

 private:
  enum class Kind : uint8_t { kSat, kCanonical, kEntails };

  struct Key {
    Kind kind;
    CanonicalLevel level;  // Meaningful for kCanonical only.
    Conjunction lhs;
    Dnf rhs;  // Meaningful for kEntails only.

    bool operator==(const Key& o) const;
    size_t Hash() const;
  };

  struct Entry {
    Key key;
    size_t hash = 0;  // Possibly overridden; the bucket key.
    bool verdict = false;              // kSat / kEntails.
    Conjunction canonical;             // kCanonical.
  };

  struct Shard {
    /// Shard locks never nest with each other (one shard per operation).
    mutable sync::Mutex mu{sync::LockRank::kCacheShard, "cache_shard"};
    /// Front = most recently used.
    std::list<Entry> lru LYRIC_GUARDED_BY(mu);
    /// Structural hash -> entries with that hash (collision chain).
    std::unordered_map<size_t, std::vector<std::list<Entry>::iterator>> index
        LYRIC_GUARDED_BY(mu);
  };

  static constexpr size_t kShards = 16;

  size_t BucketHash(const Key& key) const;
  Shard& ShardFor(size_t hash);
  size_t PerShardCapacity() const;

  /// Returns the entry for `key` in its shard (moving it to the LRU front)
  /// or nullptr.
  Entry* FindLocked(Shard& shard, const Key& key, size_t hash)
      LYRIC_REQUIRES(shard.mu);
  /// Inserts (or overwrites) `entry`, evicting LRU entries past capacity.
  void StoreEntry(Entry entry);
  void EraseFromIndexLocked(Shard& shard, std::list<Entry>::iterator it)
      LYRIC_REQUIRES(shard.mu);

  /// Rough heap footprint of one entry, for the occupancy gauge (exact
  /// accounting would walk every rational; the atom count dominates).
  static size_t ApproxEntryBytes(const Entry& entry);
  /// Retires `entry` from the occupancy accounting.
  void AccountErase(const Entry& entry);
  /// Pushes the occupancy atomics into the "solver_cache.*" gauges.
  void PublishGauges() const;

  std::atomic<size_t> capacity_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  // Occupancy, maintained at every insert/overwrite/evict/clear so the
  // gauges never need the shard locks.
  std::atomic<size_t> entries_{0};
  std::atomic<size_t> approx_bytes_{0};
  std::function<size_t(size_t)> hash_override_;
  Shard shards_[kShards];
};

}  // namespace lyric

#endif  // LYRIC_CONSTRAINT_SOLVER_CACHE_H_
