// The metrics-export gate: after driving real queries through the
// evaluator, the registry's Prometheus exposition must validate (well-
// formed lines, no duplicate series) and both file writers must produce
// parseable output. This is the ctest stand-in for a scrape: if the
// exporter ever emits a malformed or duplicated series, this fails before
// a dashboard ever sees it.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "office/office_db.h"
#include "query/evaluator.h"

namespace lyric {
namespace {

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  std::string base = dir != nullptr && *dir != '\0' ? dir : "/tmp";
  if (base.back() != '/') base += '/';
  return base + name + "." + std::to_string(::getpid());
}

// Drives enough of the engine that every metric family has members:
// counters (kernels), gauges (cache/scheduler/log), histograms (solve,
// canonicalize, query latency).
void RunWorkload() {
  Database db;
  auto ids = office::BuildOfficeDatabase(&db);
  ASSERT_TRUE(ids.ok()) << ids.status();
  Evaluator ev(&db);
  for (const char* q : {
           "SELECT X FROM Desk X",
           "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
           "SELECT D FROM Drawer D",
       }) {
    auto r = ev.Execute(std::string(q));
    ASSERT_TRUE(r.ok()) << q << " -> " << r.status();
  }
}

TEST(MetricsExportGate, PrometheusExpositionValidates) {
  RunWorkload();
  std::string text = obs::Registry::Global().ExportPrometheus();
  ASSERT_FALSE(text.empty());
  std::string error;
  EXPECT_TRUE(obs::ValidatePrometheusExposition(text, &error)) << error;
  // The hot-path histograms and subsystem gauges are present as series.
  EXPECT_NE(text.find("lyric_simplex_solve_ns{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("lyric_query_latency_ns_count"), std::string::npos);
  EXPECT_NE(text.find("lyric_solver_cache_entries"), std::string::npos);
  EXPECT_NE(text.find("lyric_evaluator_queries_total"), std::string::npos);
}

TEST(MetricsExportGate, FileWritersRoundTrip) {
  RunWorkload();
  const std::string prom_path = TempPath("lyric_metrics") + ".prom";
  const std::string json_path = TempPath("lyric_metrics") + ".json";
  ASSERT_TRUE(obs::WriteMetricsFile(prom_path));
  ASSERT_TRUE(obs::WriteMetricsFile(json_path));

  std::string error;
  EXPECT_TRUE(obs::ValidatePrometheusExposition(ReadAll(prom_path), &error))
      << error;

  std::string json = ReadAll(json_path);
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"query.latency\""), std::string::npos);

  std::remove(prom_path.c_str());
  std::remove(json_path.c_str());
}

TEST(MetricsExportGate, WriteToUnwritablePathFails) {
  EXPECT_FALSE(obs::WriteMetricsFile("/nonexistent-dir-xyz/m.prom"));
}

}  // namespace
}  // namespace lyric
