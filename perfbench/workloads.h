// The benchmark's workloads and their seeded operation generator.
//
// Operation i of a workload under seed s is a pure function of (s, i),
// so two runs with the same seed replay a byte-identical sequence no
// matter how many operations each completes, and every client of a
// closed loop can claim the next index from a shared counter.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "object/database.h"

namespace perfbench {

enum class WorkloadKind { kOfficeWarm, kSolverCold, kDurableMixed };

std::optional<WorkloadKind> ParseWorkload(std::string_view name);
const char* WorkloadName(WorkloadKind kind);

/// One generated operation: a read query, or (durable_mixed only) a
/// CREATE VIEW whose class name is `view_name`.
struct Op {
  bool write = false;
  std::string text;
  std::string view_name;
};

/// Operation `index` of `kind` under `seed`.
Op MakeOp(WorkloadKind kind, uint64_t seed, uint64_t index);

/// The repeating read mix of the served workloads: §4.1 Q1, Q2, Q4, Q6
/// and lyric_loadgen's location filter and extent scan.
const std::vector<std::string>& ServedReadMix();

/// Builds the workload's database: Figure 2 plus 12 desks sharing one
/// catalog (served workloads) or 48 desks with per-desk catalogs
/// (solver_cold). The database does not depend on the seed.
lyric::Status BuildDatabase(WorkloadKind kind, lyric::Database* db);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
