#include "util/fault.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "obs/metrics.h"
#include "util/string_util.h"
#include "util/sync.h"

namespace lyric {
namespace fault {

namespace {

struct Site {
  std::string name;
  /// Injection threshold in 2^-64 units: a call fires when the hashed
  /// (seed, index) value is below it. ~0 means probability 1.
  uint64_t threshold = 0;
  uint64_t seed = 0;
  std::atomic<uint64_t> calls{0};

  Site(std::string n, uint64_t t, uint64_t s)
      : name(std::move(n)), threshold(t), seed(s) {}
};

struct Config {
  sync::Mutex mu{sync::LockRank::kFaultConfig, "fault_config"};  // Leaf lock.
  // Inject decides under mu, so a concurrent reconfiguration may free
  // the old sites without pulling one out from under a decision.
  std::vector<std::unique_ptr<Site>> sites LYRIC_GUARDED_BY(mu);
};

Config& GlobalConfig() {
  static Config* config = new Config();
  return *config;
}

std::atomic<bool> g_enabled{false};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Parses "<site>:<prob>[:<seed>]" clauses separated by commas into
/// `out`; false on any malformed clause (out untouched in that case).
bool ParseSpec(const std::string& spec,
               std::vector<std::unique_ptr<Site>>* out) {
  std::vector<std::unique_ptr<Site>> parsed;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string clause = spec.substr(pos, end - pos);
    pos = end + 1;
    if (clause.empty()) continue;
    size_t c1 = clause.find(':');
    if (c1 == std::string::npos || c1 == 0) return false;
    size_t c2 = clause.find(':', c1 + 1);
    const std::string name = clause.substr(0, c1);
    const std::string prob_text =
        clause.substr(c1 + 1, c2 == std::string::npos ? std::string::npos
                                                      : c2 - c1 - 1);
    char* parse_end = nullptr;
    double prob = std::strtod(prob_text.c_str(), &parse_end);
    // Written so NaN fails too: its cast to the uint64 threshold below
    // would be undefined.
    if (parse_end == prob_text.c_str() || *parse_end != '\0' ||
        !(prob >= 0.0 && prob <= 1.0)) {
      return false;
    }
    uint64_t seed = 0;
    if (c2 != std::string::npos) {
      const std::optional<uint64_t> parsed = ParseUint64(clause.substr(c2 + 1));
      if (!parsed.has_value()) return false;
      seed = *parsed;
    }
    uint64_t threshold =
        prob >= 1.0 ? ~uint64_t{0}
                    : static_cast<uint64_t>(
                          prob * 18446744073709551616.0 /* 2^64 */);
    parsed.push_back(std::make_unique<Site>(name, threshold, seed));
  }
  *out = std::move(parsed);
  return true;
}

}  // namespace

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

bool Inject(const char* site) {
  if (!Enabled()) return false;
  Config& config = GlobalConfig();
  {
    sync::MutexLock lock(config.mu);
    Site* match = nullptr;
    for (const auto& s : config.sites) {
      if (s->name == site) {
        match = s.get();
        break;
      }
    }
    if (match == nullptr) return false;
    uint64_t index = match->calls.fetch_add(1, std::memory_order_relaxed);
    if (match->threshold == 0) return false;
    uint64_t draw = SplitMix64(match->seed * 0x2545f4914f6cdd1dull + index);
    if (match->threshold != ~uint64_t{0} && draw >= match->threshold) {
      return false;
    }
  }
  // Counted outside mu: the registry lock ranks before this leaf lock.
  {
    static obs::Counter& injected =
        obs::Registry::Global().GetCounter("fault.injected");
    injected.Increment();
  }
  obs::Registry::Global()
      .GetCounter(std::string("fault.injected.") + site)
      .Increment();
  return true;
}

bool Configure(const std::string& spec) {
  std::vector<std::unique_ptr<Site>> sites;
  if (!ParseSpec(spec, &sites)) return false;
  Config& config = GlobalConfig();
  sync::MutexLock lock(config.mu);
  config.sites = std::move(sites);
  g_enabled.store(!config.sites.empty(), std::memory_order_relaxed);
  return true;
}

bool ValidSpec(const std::string& spec) {
  std::vector<std::unique_ptr<Site>> sites;
  return ParseSpec(spec, &sites);
}

}  // namespace fault
}  // namespace lyric
