// Config: the one reader of the LYRIC_* environment. Every variable is
// checked through Config::FromEnv against a table of valid, malformed and
// boundary values — a malformed value reads as unset and leaves its
// field at the default, and no variable touches another's field — and
// Apply is checked to install each process-wide piece.

#include "config/config.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "constraint/solver_cache.h"
#include "obs/metrics.h"
#include "obs/query_log.h"
#include "office/office_db.h"
#include "storage/file_io.h"
#include "util/fault.h"

namespace lyric {
namespace {

const std::vector<std::string> kVariables = {
    "LYRIC_DEADLINE_MS",      "LYRIC_MEMORY_BUDGET",
    "LYRIC_RETRY",            "LYRIC_MAX_CONCURRENT",
    "LYRIC_QUEUE_CAPACITY",   "LYRIC_QUEUE_TIMEOUT_MS",
    "LYRIC_MAX_TOTAL_MEMORY", "LYRIC_CACHE_CAPACITY",
    "LYRIC_FAULT",            "LYRIC_SLOW_MS",
    "LYRIC_QUERY_LOG",        "LYRIC_METRICS_OUT",
    "LYRIC_STORAGE_CRASH_AT", "LYRIC_STORAGE_FULL_AT",
};

std::string Text(const std::optional<uint64_t>& v) {
  return v.has_value() ? std::to_string(*v) : "unset";
}

// The field(s) `variable` sets, rendered as text, so one table covers
// all fourteen.
std::string Field(const Config& c, const std::string& variable) {
  const std::map<std::string, std::string> fields = {
      {"LYRIC_DEADLINE_MS", Text(c.deadline_ms)},
      {"LYRIC_MEMORY_BUDGET", Text(c.memory_budget)},
      {"LYRIC_RETRY", std::to_string(c.retry.max_retries) + ":" +
                          std::to_string(c.retry.base_backoff_ms) + ":" +
                          std::to_string(c.retry.seed)},
      {"LYRIC_MAX_CONCURRENT", Text(c.scheduler.max_concurrent)},
      {"LYRIC_QUEUE_CAPACITY", Text(c.scheduler.queue_capacity)},
      {"LYRIC_QUEUE_TIMEOUT_MS", Text(c.scheduler.queue_timeout_ms)},
      {"LYRIC_MAX_TOTAL_MEMORY", Text(c.scheduler.max_total_memory)},
      {"LYRIC_CACHE_CAPACITY", std::to_string(c.cache_capacity)},
      {"LYRIC_FAULT", "'" + c.fault + "'"},
      {"LYRIC_SLOW_MS", std::to_string(c.slow_ms)},
      {"LYRIC_QUERY_LOG",
       "'" + c.query_log + "':" + std::to_string(c.query_log_max_bytes)},
      {"LYRIC_METRICS_OUT",
       "'" + c.metrics_out + "':" + std::to_string(c.metrics_interval_ms)},
      {"LYRIC_STORAGE_CRASH_AT", std::to_string(c.storage_crash_at)},
      {"LYRIC_STORAGE_FULL_AT", std::to_string(c.storage_full_at)},
  };
  return fields.at(variable);
}

struct EnvCase {
  const char* variable;
  const char* value;  // nullptr: unset
  const char* field;  // Field() after FromEnv
};

const EnvCase kCases[] = {
    // Per-query defaults.
    {"LYRIC_DEADLINE_MS", nullptr, "unset"},
    {"LYRIC_DEADLINE_MS", "250", "250"},
    {"LYRIC_DEADLINE_MS", "18446744073709551615", "18446744073709551615"},
    {"LYRIC_DEADLINE_MS", "18446744073709551616", "unset"},
    {"LYRIC_DEADLINE_MS", "-1", "unset"},
    {"LYRIC_DEADLINE_MS", "12ms", "unset"},
    {"LYRIC_DEADLINE_MS", "", "unset"},
    {"LYRIC_MEMORY_BUDGET", "1048576", "1048576"},
    {"LYRIC_MEMORY_BUDGET", "1e6", "unset"},
    {"LYRIC_RETRY", nullptr, "0:10:0"},
    {"LYRIC_RETRY", "16:1", "16:1:0"},
    {"LYRIC_RETRY", "3:20:9", "3:20:9"},
    {"LYRIC_RETRY", "3:0", "3:10:0"},
    {"LYRIC_RETRY", "4294967295", "4294967295:10:0"},
    {"LYRIC_RETRY", "4294967296", "0:10:0"},
    {"LYRIC_RETRY", "1:2:3:4", "0:10:0"},
    {"LYRIC_RETRY", "abc", "0:10:0"},
    // Admission limits.
    {"LYRIC_MAX_CONCURRENT", "2", "2"},
    {"LYRIC_MAX_CONCURRENT", "-5", "unset"},
    {"LYRIC_QUEUE_CAPACITY", "4", "4"},
    {"LYRIC_QUEUE_CAPACITY", "four", "unset"},
    {"LYRIC_QUEUE_TIMEOUT_MS", "18446744073709551615",
     "18446744073709551615"},
    {"LYRIC_QUEUE_TIMEOUT_MS", "1.5", "unset"},
    {"LYRIC_MAX_TOTAL_MEMORY", "65536", "65536"},
    {"LYRIC_MAX_TOTAL_MEMORY", " 65536", "unset"},
    // Solver cache.
    {"LYRIC_CACHE_CAPACITY", nullptr, "4096"},
    {"LYRIC_CACHE_CAPACITY", "128", "128"},
    {"LYRIC_CACHE_CAPACITY", "0", "0"},
    {"LYRIC_CACHE_CAPACITY", "-1", "4096"},
    // Fault sites.
    {"LYRIC_FAULT", "solver_cache:0.5:3", "'solver_cache:0.5:3'"},
    {"LYRIC_FAULT", "scheduler:0.3:7,trace:1.0", "'scheduler:0.3:7,trace:1.0'"},
    {"LYRIC_FAULT", "site:nan", "''"},
    {"LYRIC_FAULT", "site:1.5", "''"},
    {"LYRIC_FAULT", "nocolon", "''"},
    // Query log.
    {"LYRIC_SLOW_MS", "50", "50"},
    {"LYRIC_SLOW_MS", "slow", "0"},
    {"LYRIC_QUERY_LOG", "/tmp/q.jsonl", "'/tmp/q.jsonl':0"},
    {"LYRIC_QUERY_LOG", "/tmp/q.jsonl:4096", "'/tmp/q.jsonl':4096"},
    {"LYRIC_QUERY_LOG", "/tmp/q.jsonl:99999999999999999999",
     "'/tmp/q.jsonl':0"},
    {"LYRIC_QUERY_LOG", "/tmp/q:x", "'/tmp/q:x':0"},
    {"LYRIC_QUERY_LOG", "", "'':0"},
    // Metrics flusher.
    {"LYRIC_METRICS_OUT", "/tmp/m.prom:1000", "'/tmp/m.prom':1000"},
    {"LYRIC_METRICS_OUT", "/tmp/m.json", "'/tmp/m.json':0"},
    {"LYRIC_METRICS_OUT", ":1000", "'':1000"},
    // Storage test hooks: budgets above INT64_MAX stay unarmed.
    {"LYRIC_STORAGE_CRASH_AT", "4096", "4096"},
    {"LYRIC_STORAGE_CRASH_AT", "9223372036854775807", "9223372036854775807"},
    {"LYRIC_STORAGE_CRASH_AT", "9223372036854775808", "-1"},
    {"LYRIC_STORAGE_CRASH_AT", "-1", "-1"},
    {"LYRIC_STORAGE_FULL_AT", "262144", "262144"},
    {"LYRIC_STORAGE_FULL_AT", "18446744073709551615", "-1"},
    {"LYRIC_STORAGE_FULL_AT", "+262144", "-1"},
};

// Clears the fourteen variables for the test and restores them after.
class ConfigTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const std::string& name : kVariables) {
      if (const char* value = std::getenv(name.c_str())) saved_[name] = value;
      ::unsetenv(name.c_str());
    }
  }
  void TearDown() override {
    for (const std::string& name : kVariables) {
      auto it = saved_.find(name);
      if (it == saved_.end()) {
        ::unsetenv(name.c_str());
      } else {
        ::setenv(name.c_str(), it->second.c_str(), 1);
      }
    }
  }

  std::map<std::string, std::string> saved_;
};

TEST_F(ConfigTest, EveryVariableParsesAndMalformedReadsAsUnset) {
  const Config defaults;
  std::map<std::string, int> covered;
  for (const EnvCase& c : kCases) {
    if (c.value != nullptr) ::setenv(c.variable, c.value, 1);
    const Config config = Config::FromEnv();
    ::unsetenv(c.variable);
    const std::string shown = c.value == nullptr ? "(unset)" : c.value;
    EXPECT_EQ(Field(config, c.variable), c.field)
        << c.variable << "=" << shown;
    // A variable sets its own field and no other.
    for (const std::string& other : kVariables) {
      if (other == c.variable) continue;
      EXPECT_EQ(Field(config, other), Field(defaults, other))
          << c.variable << "=" << shown << " changed " << other;
    }
    ++covered[c.variable];
  }
  for (const std::string& name : kVariables) {
    EXPECT_GE(covered[name], 2) << name << " needs a valid and a bad value";
  }
}

// EnvUint64, config.cc's reader of the numeric variables: the value
// ParseUint64 accepts, and unset for anything else.
TEST(ParseUint64Test, EnvUint64ReadsTheVariable) {
  ::setenv("LYRIC_SLOW_MS", "42", 1);
  EXPECT_EQ(Config::FromEnv().slow_ms, 42u);
  // A negative value reads as unset, not as 2^64 - 1.
  ::setenv("LYRIC_SLOW_MS", "-1", 1);
  EXPECT_EQ(Config::FromEnv().slow_ms, 0u);
  ::unsetenv("LYRIC_SLOW_MS");
  EXPECT_EQ(Config::FromEnv().slow_ms, 0u);
}

TEST_F(ConfigTest, EvalCarriesThePerQueryDefaults) {
  Config config;
  config.deadline_ms = 5;
  config.memory_budget = 1 << 20;
  config.retry = exec::RetryPolicy::Parse("8:1:3").value();
  const EvalOptions eval = config.Eval();
  EXPECT_EQ(eval.deadline_ms, 5u);
  EXPECT_EQ(eval.memory_budget, 1u << 20);
  EXPECT_EQ(eval.retry.max_retries, 8u);
  EXPECT_EQ(eval.retry.base_backoff_ms, 1u);
  EXPECT_EQ(eval.retry.seed, 3u);
  // Everything else is EvalOptions' own default.
  const EvalOptions plain;
  EXPECT_EQ(eval.max_rows, plain.max_rows);
  EXPECT_EQ(eval.scheduler, nullptr);
  EXPECT_FALSE(eval.collect_trace);
}

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  std::string base = dir != nullptr && *dir != '\0' ? dir : "/tmp";
  if (base.back() != '/') base += '/';
  return base + name + "." + std::to_string(::getpid());
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST_F(ConfigTest, ApplyInstallsEveryProcessWidePiece) {
  const std::string log_path = TempPath("lyric_config_test.jsonl");
  std::remove(log_path.c_str());
  Config config;
  config.scheduler.max_concurrent = 3;
  config.scheduler.queue_capacity = 5;
  config.scheduler.queue_timeout_ms = 700;
  config.scheduler.max_total_memory = 1 << 30;
  config.cache_capacity = 64;
  config.fault = "config_test_site:1.0";
  config.slow_ms = 9;
  config.query_log = log_path;
  config.storage_crash_at = 1 << 30;
  config.storage_full_at = 1 << 29;
  config.Apply();

  const exec::SchedulerLimits limits = exec::QueryScheduler::Global().limits();
  EXPECT_EQ(limits.max_concurrent, 3u);
  EXPECT_EQ(limits.queue_capacity, 5u);
  EXPECT_EQ(limits.queue_timeout_ms, 700u);
  EXPECT_EQ(limits.max_total_memory, 1u << 30);
  EXPECT_EQ(SolverCache::Global().capacity(), 64u);
  EXPECT_TRUE(fault::Enabled());
  EXPECT_TRUE(fault::Inject("config_test_site"));
  EXPECT_EQ(obs::QueryLog::Global().slow_ms(), 9u);
  EXPECT_EQ(storage::CrashBudgetRemainingForTesting(), 1 << 30);
  EXPECT_EQ(storage::DiskFullBudgetRemainingForTesting(), 1 << 29);
  // The sink takes the next record.
  Database db;
  ASSERT_TRUE(office::BuildOfficeDatabase(&db).ok());
  ASSERT_TRUE(Evaluator(&db).Execute("SELECT X FROM Desk X").ok());
  EXPECT_NE(ReadAll(log_path).find("\"query\": \"SELECT X FROM Desk X\""),
            std::string::npos);

  // The default Config puts every piece back.
  Config().Apply();
  EXPECT_FALSE(exec::QueryScheduler::Global().limits().Any());
  EXPECT_EQ(SolverCache::Global().capacity(), SolverCache::kDefaultCapacity);
  EXPECT_FALSE(fault::Enabled());
  EXPECT_EQ(obs::QueryLog::Global().slow_ms(), 0u);
  EXPECT_LT(storage::CrashBudgetRemainingForTesting(), 0);
  EXPECT_LT(storage::DiskFullBudgetRemainingForTesting(), 0);
  std::remove(log_path.c_str());
}

// The flusher lives as long as its process, so it runs in a child: Apply
// starts it, and the child's exit flushes the registry to the file.
TEST_F(ConfigTest, ApplyStartsTheMetricsFlusher) {
  const std::string path = TempPath("lyric_config_test") + ".prom";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        Config config;
        config.metrics_out = path;
        config.metrics_interval_ms = 3600000;
        config.Apply();
        obs::Registry::Global().GetCounter("config_test.flushed").Increment();
        std::exit(0);
      },
      ::testing::ExitedWithCode(0), "");
  const std::string text = ReadAll(path);
  std::string error;
  EXPECT_NE(text.find("lyric_config_test_flushed"), std::string::npos)
      << "no snapshot of the child's registry at " << path << ": " << text;
  EXPECT_TRUE(obs::ValidatePrometheusExposition(text, &error)) << error;
  std::remove(path.c_str());
}

// config_env_gate (tests/CMakeLists.txt) runs this under
// LYRIC_DEADLINE_MS=5: EvalOptions reads no environment, Config does.
TEST(ConfigEnvGate, OnlyConfigReadsTheEnvironment) {
  if (std::getenv("LYRIC_DEADLINE_MS") == nullptr) {
    GTEST_SKIP() << "gate-only: runs via config_env_gate";
  }
  EXPECT_FALSE(EvalOptions{}.deadline_ms.has_value());
  EXPECT_EQ(Config::FromEnv().Eval().deadline_ms, 5u);
}

}  // namespace
}  // namespace lyric
