#include "constraint/solver_cache.h"

#include <cstdio>
#include <utility>

#include "obs/metrics.h"
#include "obs/query_context.h"
#include "util/fault.h"

namespace lyric {

namespace {

// Simulated cache failure: lookups miss and stores drop. Safe by
// construction — every caller treats a miss as "recompute" — so the
// fault gate can hammer this site and only performance may change.
bool CacheFault() {
  return fault::Enabled() && fault::Inject(fault::kSiteSolverCache);
}

size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

}  // namespace

double SolverCache::Stats::HitRate() const {
  uint64_t total = hits + misses;
  return total == 0 ? 0.0 : static_cast<double>(hits) /
                                static_cast<double>(total);
}

std::string SolverCache::Stats::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "hits=%llu misses=%llu hit_rate=%.3f evictions=%llu "
                "size=%zu/%zu",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(misses),
                HitRate(), static_cast<unsigned long long>(evictions), size,
                capacity);
  return buf;
}

SolverCache& SolverCache::Global() {
  static SolverCache* cache = new SolverCache(kDefaultCapacity);
  return *cache;
}

SolverCache::SolverCache(size_t capacity) : capacity_(capacity) {}

size_t SolverCache::Probe::Hash() const {
  size_t h = static_cast<size_t>(kind) * 0x2545f4914f6cdd1dull;
  if (kind == Kind::kCanonical) {
    h = HashCombine(h, static_cast<size_t>(level));
  }
  h = HashCombine(h, lhs.Hash());
  if (kind == Kind::kEntails) h = HashCombine(h, rhs->Hash());
  return h;
}

bool SolverCache::Entry::Answers(const Probe& p) const {
  if (kind != p.kind) return false;
  if (kind == Kind::kCanonical && level != p.level) return false;
  if (!(lhs == p.lhs)) return false;
  if (kind == Kind::kEntails && !(rhs == *p.rhs)) return false;
  return true;
}

size_t SolverCache::BucketHash(const Probe& probe) const {
  size_t h = probe.Hash();
  if (hash_override_) h = hash_override_(h);
  return h;
}

SolverCache::Shard& SolverCache::ShardFor(size_t hash) {
  // The low bits pick the bucket inside the shard map; mix the high bits
  // into the shard choice so both spread.
  return shards_[(hash >> 48) % kShards];
}

size_t SolverCache::PerShardCapacity() const {
  size_t cap = capacity();
  if (cap == 0) return 0;
  size_t per = cap / kShards;
  return per == 0 ? 1 : per;
}

void SolverCache::set_capacity(size_t capacity) {
  capacity_.store(capacity, std::memory_order_relaxed);
  size_t per = PerShardCapacity();
  bool evicted = false;
  for (Shard& shard : shards_) {
    sync::MutexLock lock(shard.mu);
    while (shard.lru.size() > per) {
      auto last = std::prev(shard.lru.end());
      AccountErase(*last);
      EraseFromIndexLocked(shard, last);
      shard.lru.erase(last);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      evicted = true;
    }
  }
  // The gauges mirror entries and bytes, which only an eviction changes.
  if (evicted) PublishGauges();
}

void SolverCache::Clear() {
  for (Shard& shard : shards_) {
    sync::MutexLock lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
  }
  entries_.store(0, std::memory_order_relaxed);
  approx_bytes_.store(0, std::memory_order_relaxed);
  PublishGauges();
}

size_t SolverCache::ApproxEntryBytes(const Entry& entry) {
  // Per-atom footprint is dominated by the LinearExpr term vector and two
  // arbitrary-precision rationals; 64 bytes is a workable flat estimate.
  constexpr size_t kPerAtom = 64;
  size_t atoms = entry.lhs.size() + entry.canonical.size();
  for (const Conjunction& d : entry.rhs.disjuncts()) atoms += d.size();
  return sizeof(Entry) + atoms * kPerAtom;
}

void SolverCache::AccountErase(const Entry& entry) {
  entries_.fetch_sub(1, std::memory_order_relaxed);
  approx_bytes_.fetch_sub(ApproxEntryBytes(entry),
                          std::memory_order_relaxed);
}

void SolverCache::PublishGauges() const {
  // Only the global instance feeds the process-wide gauges; short-lived
  // per-test caches must not clobber its occupancy numbers.
  static const SolverCache* global = &Global();
  if (this != global) return;
  obs::Registry& reg = obs::Registry::Global();
  static obs::Gauge& entries_gauge = reg.GetGauge("solver_cache.entries");
  static obs::Gauge& bytes_gauge =
      reg.GetGauge("solver_cache.approx_bytes");
  entries_gauge.Set(
      static_cast<int64_t>(entries_.load(std::memory_order_relaxed)));
  bytes_gauge.Set(
      static_cast<int64_t>(approx_bytes_.load(std::memory_order_relaxed)));
}

void SolverCache::CountHit() {
  hits_.fetch_add(1, std::memory_order_relaxed);
  LYRIC_OBS_COUNT("solver_cache.hits");
  if (obs::QueryContext* query = obs::QueryContext::Current()) {
    ++query->cache_hits;
  }
}

void SolverCache::CountMiss() {
  misses_.fetch_add(1, std::memory_order_relaxed);
  LYRIC_OBS_COUNT("solver_cache.misses");
  if (obs::QueryContext* query = obs::QueryContext::Current()) {
    ++query->cache_misses;
  }
}

SolverCache::Stats SolverCache::stats() const {
  Stats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.capacity = capacity();
  for (const Shard& shard : shards_) {
    sync::MutexLock lock(shard.mu);
    out.size += shard.lru.size();
  }
  return out;
}

void SolverCache::SetHashOverrideForTesting(
    std::function<size_t(size_t)> fn) {
  Clear();
  hash_override_ = std::move(fn);
}

void SolverCache::EraseFromIndexLocked(Shard& shard,
                                       std::list<Entry>::iterator it) {
  auto bucket = shard.index.find(it->hash);
  if (bucket == shard.index.end()) return;
  auto& chain = bucket->second;
  for (size_t i = 0; i < chain.size(); ++i) {
    if (chain[i] == it) {
      chain.erase(chain.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  if (chain.empty()) shard.index.erase(bucket);
}

SolverCache::Entry* SolverCache::FindLocked(Shard& shard, const Probe& probe,
                                            size_t hash) {
  auto bucket = shard.index.find(hash);
  if (bucket == shard.index.end()) return nullptr;
  for (auto it : bucket->second) {
    // Structural equality guards against hash collisions: an equal hash
    // with a different formula must never serve a cached verdict.
    if (it->Answers(probe)) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it);
      return &*it;
    }
  }
  return nullptr;
}

void SolverCache::StoreEntry(const Probe& probe, bool verdict,
                             const Conjunction& canonical) {
  if (!enabled() || CacheFault()) return;
  size_t hash = BucketHash(probe);
  Shard& shard = ShardFor(hash);
  size_t per = PerShardCapacity();
  {
    sync::MutexLock lock(shard.mu);
    if (Entry* existing = FindLocked(shard, probe, hash)) {
      AccountErase(*existing);
      existing->verdict = verdict;
      existing->canonical = canonical;
      entries_.fetch_add(1, std::memory_order_relaxed);
      approx_bytes_.fetch_add(ApproxEntryBytes(*existing),
                              std::memory_order_relaxed);
      PublishGauges();
      return;
    }
    Entry entry;
    entry.kind = probe.kind;
    entry.level = probe.level;
    entry.lhs = probe.lhs;
    if (probe.rhs != nullptr) entry.rhs = *probe.rhs;
    entry.hash = hash;
    entry.verdict = verdict;
    entry.canonical = canonical;
    entries_.fetch_add(1, std::memory_order_relaxed);
    approx_bytes_.fetch_add(ApproxEntryBytes(entry),
                            std::memory_order_relaxed);
    shard.lru.push_front(std::move(entry));
    shard.index[hash].push_back(shard.lru.begin());
    while (shard.lru.size() > per) {
      auto last = std::prev(shard.lru.end());
      AccountErase(*last);
      EraseFromIndexLocked(shard, last);
      shard.lru.erase(last);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      LYRIC_OBS_COUNT("solver_cache.evictions");
    }
  }
  PublishGauges();
}

std::optional<bool> SolverCache::LookupSat(const Conjunction& c) {
  if (!enabled() || CacheFault()) return std::nullopt;
  Probe probe{Kind::kSat, CanonicalLevel::kSyntactic, c, nullptr};
  size_t hash = BucketHash(probe);
  Shard& shard = ShardFor(hash);
  sync::MutexLock lock(shard.mu);
  Entry* e = FindLocked(shard, probe, hash);
  if (e != nullptr) {
    CountHit();
    LYRIC_OBS_COUNT("solver_cache.sat_hits");
    return e->verdict;
  }
  CountMiss();
  return std::nullopt;
}

void SolverCache::StoreSat(const Conjunction& c, bool sat) {
  StoreEntry(Probe{Kind::kSat, CanonicalLevel::kSyntactic, c, nullptr}, sat,
             Conjunction());
}

std::optional<Conjunction> SolverCache::LookupCanonical(
    const Conjunction& c, CanonicalLevel level) {
  if (!enabled() || CacheFault()) return std::nullopt;
  Probe probe{Kind::kCanonical, level, c, nullptr};
  size_t hash = BucketHash(probe);
  Shard& shard = ShardFor(hash);
  sync::MutexLock lock(shard.mu);
  Entry* e = FindLocked(shard, probe, hash);
  if (e != nullptr) {
    CountHit();
    LYRIC_OBS_COUNT("solver_cache.canonical_hits");
    return e->canonical;
  }
  CountMiss();
  return std::nullopt;
}

void SolverCache::StoreCanonical(const Conjunction& c, CanonicalLevel level,
                                 const Conjunction& result) {
  StoreEntry(Probe{Kind::kCanonical, level, c, nullptr}, false, result);
}

std::optional<bool> SolverCache::LookupEntails(const Conjunction& lhs,
                                               const Dnf& rhs) {
  if (!enabled() || CacheFault()) return std::nullopt;
  Probe probe{Kind::kEntails, CanonicalLevel::kSyntactic, lhs, &rhs};
  size_t hash = BucketHash(probe);
  Shard& shard = ShardFor(hash);
  sync::MutexLock lock(shard.mu);
  Entry* e = FindLocked(shard, probe, hash);
  if (e != nullptr) {
    CountHit();
    LYRIC_OBS_COUNT("solver_cache.entailment_hits");
    return e->verdict;
  }
  CountMiss();
  return std::nullopt;
}

void SolverCache::StoreEntails(const Conjunction& lhs, const Dnf& rhs,
                               bool holds) {
  StoreEntry(Probe{Kind::kEntails, CanonicalLevel::kSyntactic, lhs, &rhs},
             holds, Conjunction());
}

}  // namespace lyric
