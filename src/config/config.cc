#include "config/config.h"

#include <cstdint>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/query_log.h"
#include "storage/file_io.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace lyric {

namespace {

// The variable's text; empty when unset, which every grammar below
// reads as unset too.
std::string EnvText(const char* name) {
  const char* text = std::getenv(name);
  return text == nullptr ? "" : text;
}

// The variable parsed by ParseUint64; nullopt when unset or malformed.
std::optional<uint64_t> EnvUint64(const char* name) {
  return ParseUint64(EnvText(name));
}

// A storage hook's byte budget: -1 (unarmed) when the variable is unset,
// malformed or above INT64_MAX.
int64_t EnvByteBudget(const char* name) {
  const uint64_t budget = EnvUint64(name).value_or(UINT64_MAX);
  return budget > INT64_MAX ? -1 : static_cast<int64_t>(budget);
}

}  // namespace

Config Config::FromEnv() {
  Config config;
  config.deadline_ms = EnvUint64("LYRIC_DEADLINE_MS");
  config.memory_budget = EnvUint64("LYRIC_MEMORY_BUDGET");
  config.retry =
      exec::RetryPolicy::Parse(EnvText("LYRIC_RETRY")).value_or(config.retry);
  config.scheduler.max_concurrent = EnvUint64("LYRIC_MAX_CONCURRENT");
  config.scheduler.queue_capacity = EnvUint64("LYRIC_QUEUE_CAPACITY");
  config.scheduler.queue_timeout_ms = EnvUint64("LYRIC_QUEUE_TIMEOUT_MS");
  config.scheduler.max_total_memory = EnvUint64("LYRIC_MAX_TOTAL_MEMORY");
  config.cache_capacity = static_cast<size_t>(
      EnvUint64("LYRIC_CACHE_CAPACITY").value_or(config.cache_capacity));
  const std::string fault = EnvText("LYRIC_FAULT");
  if (fault::ValidSpec(fault)) config.fault = fault;
  config.slow_ms = EnvUint64("LYRIC_SLOW_MS").value_or(0);
  config.query_log_max_bytes =
      SplitNumericSuffix(EnvText("LYRIC_QUERY_LOG"), &config.query_log)
          .value_or(0);
  config.metrics_interval_ms =
      SplitNumericSuffix(EnvText("LYRIC_METRICS_OUT"), &config.metrics_out)
          .value_or(0);
  config.storage_crash_at = EnvByteBudget("LYRIC_STORAGE_CRASH_AT");
  config.storage_full_at = EnvByteBudget("LYRIC_STORAGE_FULL_AT");
  return config;
}

void Config::Apply() const {
  exec::QueryScheduler::Global().Configure(scheduler);
  SolverCache::Global().set_capacity(cache_capacity);
  fault::Configure(fault);
  obs::QueryLog::Global().ConfigureSink(query_log, query_log_max_bytes);
  obs::QueryLog::Global().set_slow_ms(slow_ms);
  obs::StartMetricsFlusher(metrics_out, metrics_interval_ms);
  storage::ArmCrashBudget(storage_crash_at);
  storage::ArmDiskFull(storage_full_at);
}

EvalOptions Config::Eval() const {
  EvalOptions options;
  options.deadline_ms = deadline_ms;
  options.memory_budget = memory_budget;
  options.retry = retry;
  return options;
}

}  // namespace lyric
