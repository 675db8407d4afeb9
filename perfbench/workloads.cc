#include "workloads.h"

#include "office/office_db.h"

namespace perfbench {
namespace {

/// SplitMix64: a tiny generator whose output is fixed by its algorithm,
/// unlike the std:: distributions, whose results vary between standard
/// libraries.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t index)
      : state_(seed * 0x9E3779B97F4A7C15ull ^ (index + 1) * 0xBF58476D1CE4E5B9ull) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform-ish integer in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

/// `quarters / 4` as LyriC text ("9/4", "3", "-1/2").
std::string Quarters(int64_t quarters) {
  if (quarters % 4 == 0) return std::to_string(quarters / 4);
  if (quarters % 2 == 0) return std::to_string(quarters / 2) + "/2";
  return std::to_string(quarters) + "/4";
}

/// An axis-aligned box with lower left corner (x0, y0) in quarters, as a
/// conjunction over `x` and `y` with the given comparison ("<=" or "<").
std::string BoxAt(int64_t x0, int64_t y0, const char* x, const char* y,
                  const char* cmp, int64_t width_q, int64_t height_q) {
  return Quarters(x0) + " " + cmp + " " + x + " and " + x + " " + cmp + " " +
         Quarters(x0 + width_q) + " and " + Quarters(y0) + " " + cmp + " " +
         y + " and " + y + " " + cmp + " " + Quarters(y0 + height_q);
}

/// A seeded box inside the 20 x 10 room.
std::string Box(Rng& rng, const char* x, const char* y, const char* cmp,
                int64_t width_q, int64_t height_q) {
  const int64_t x0 = rng.Range(0, 80 - width_q);
  const int64_t y0 = rng.Range(0, 40 - height_q);
  return BoxAt(x0, y0, x, y, cmp, width_q, height_q);
}

/// A box inside the room that operation `index` of `seed` places evenly:
/// the operations of one shape slot (index % 10) take successive points
/// of the R2 low-discrepancy sequence, shifted by a seeded offset. Every
/// seed thus spreads its boxes over the room alike, so that query costs,
/// which follow how many objects a box holds, are distributed alike for
/// every seed, while the constants themselves differ.
std::string EvenBox(uint64_t seed, uint64_t index, const char* x,
                    const char* y, const char* cmp, int64_t width_q,
                    int64_t height_q) {
  Rng shift(seed, ~(index % 10));
  const uint64_t k = index / 10;
  const uint64_t u = k * 0xC13FA9A902A6328Full + shift.Next();
  const uint64_t v = k * 0x91E10DA5C79E7B1Dull + shift.Next();
  auto scale = [](uint64_t w, int64_t n) {
    return static_cast<int64_t>((w >> 32) * static_cast<uint64_t>(n) >> 32);
  };
  return BoxAt(scale(u, 81 - width_q), scale(v, 41 - height_q), x, y, cmp,
               width_q, height_q);
}

// The joined §4.1 Q3 body: the drawer's reachable area in room
// coordinates, over one room object and its catalog desk.
constexpr char kQ3Body[] =
    "D(w, z, x, y, u, v) and DD(w1, z1, x1, y1, u1, v1) and w = u1 and "
    "z = v1 and DC(p, q) and DE(w1, z1) and L(x, y)";

/// FROM + WHERE of the Q3/Q5 join of a room object with its catalog
/// desk, narrowed to the objects whose location may fall in an evenly
/// placed window (Q3's own "lower left quarter" test with moving bounds).
/// The desk is joined through the O.catalog_object[DSK] path rather than a
/// second FROM class: the answers are the same, and the 49 x 49 FROM
/// product would spend the query on path walking instead of solving.
std::string Q3Join(uint64_t seed, uint64_t index) {
  return " FROM Object_in_Room O WHERE O.location[L] and SAT(L(x, y) and " +
         EvenBox(seed, index, "x", "y", "<=", 16, 12) +
         ") and O.catalog_object[DSK] and DSK.translation[D] and "
         "DSK.drawer_center[DC] and DSK.drawer.translation[DD] and "
         "DSK.drawer.extent[DE]";
}

/// A seeded linear term "a * u + b * v" with nonzero coefficients.
std::string Objective(Rng& rng) {
  int64_t a = rng.Range(1, 5), b = rng.Range(1, 5);
  if (rng.Next() % 2) a = -a;
  if (rng.Next() % 2) b = -b;
  return std::to_string(a) + " * u + " + std::to_string(b) + " * v";
}

/// The shape follows the op index, so every ten consecutive operations
/// hold the same mix (3 Q3, 3 Q5, 2 MAX/MIN, 1 Q2, 1 entailment filter)
/// and only the constants depend on the seed.
Op SolverColdOp(Rng& rng, uint64_t seed, uint64_t index) {
  Op op;
  const uint64_t pick = index % 10;
  if (pick < 3) {
    // Q3-shaped: project the joined body, cut by a seeded half-plane.
    const std::string cut = Objective(rng) + " <= " +
                            std::to_string(rng.Range(-10, 60));
    const std::string join = Q3Join(seed, index);
    op.text = "SELECT O, ((u, v) | " + std::string(kQ3Body) + " and " + cut +
              ")" + join;
  } else if (pick < 6) {
    // Q5-shaped: desks whose drawer area stays inside a seeded box.
    const std::string join = Q3Join(seed, index);
    op.text = "SELECT DSK" + join + " and ((u, v) | " + kQ3Body +
              ") |= ((u, v) | " + Box(rng, "u", "v", "<", 56, 24) + ")";
  } else if (pick < 8) {
    // MAX/MIN SUBJECT TO over the joined Q3 body, seeded objective.
    const char* opt = rng.Next() % 2 ? "MAX" : "MIN";
    const std::string objective = Objective(rng);
    op.text = "SELECT O, " + std::string(opt) + "(" + objective +
              " SUBJECT TO ((u, v) | " + kQ3Body + "))" + Q3Join(seed, index);
  } else if (pick < 9) {
    // Q2-style: every catalog extent placed at a seeded anchor.
    const std::string x = Quarters(rng.Range(8, 72));
    const std::string y = Quarters(rng.Range(8, 32));
    op.text =
        "SELECT CO, ((u, v) | E and D and x = " + x + " and y = " + y +
        ") FROM Office_Object CO WHERE CO.extent[E] and CO.translation[D]";
  } else {
    // Entailment filter: room objects certainly inside a seeded box.
    op.text =
        "SELECT O FROM Object_in_Room O WHERE O.location[L] and L(x, y) |= (" +
        Box(rng, "x", "y", "<", 40, 20) + ")";
  }
  return op;
}

}  // namespace

std::optional<WorkloadKind> ParseWorkload(std::string_view name) {
  if (name == "office_warm") return WorkloadKind::kOfficeWarm;
  if (name == "solver_cold") return WorkloadKind::kSolverCold;
  if (name == "durable_mixed") return WorkloadKind::kDurableMixed;
  return std::nullopt;
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kOfficeWarm: return "office_warm";
    case WorkloadKind::kSolverCold: return "solver_cold";
    case WorkloadKind::kDurableMixed: return "durable_mixed";
  }
  return "?";
}

const std::vector<std::string>& ServedReadMix() {
  static const std::vector<std::string> mix = {
      "SELECT Y FROM Desk X WHERE X.drawer.extent[Y]",
      "SELECT CO, ((u, v) | E and D and x = 6 and y = 4) "
      "FROM Office_Object CO WHERE CO.extent[E] and CO.translation[D]",
      "SELECT DSK, ((w, z) | DSK.drawer.extent(w, z) and z >= w) "
      "FROM Desk DSK WHERE DSK.color = 'red' and DSK.drawer_center[C] and "
      "C(p, q) |= p = -2",
      "SELECT MAX(w + z SUBJECT TO ((w, z) | E)) "
      "FROM Desk X WHERE X.extent[E]",
      "SELECT O FROM Object_in_Room O "
      "WHERE O.location[L] and L(x, y) |= x <= 12",
      "SELECT O FROM Object_in_Room O",
  };
  return mix;
}

Op MakeOp(WorkloadKind kind, uint64_t seed, uint64_t index) {
  Rng rng(seed, index);
  if (kind == WorkloadKind::kSolverCold) return SolverColdOp(rng, seed, index);
  const std::vector<std::string>& mix = ServedReadMix();
  Op op;
  // Every 20th operation writes, so that every seed writes equally often;
  // the boxes are large enough that a view is seldom empty (an empty view
  // commits nothing).
  if (kind == WorkloadKind::kDurableMixed && index % 20 == 19) {
    op.write = true;
    op.view_name = "Bench_View_" + std::to_string(index);
    op.text = "CREATE VIEW " + op.view_name +
              " AS SUBCLASS OF Object_in_Room SELECT O FROM Object_in_Room O "
              "WHERE O.location[L] and L(x, y) |= (" +
              Box(rng, "x", "y", "<=", 40, 32) + ")";
    return op;
  }
  op.text = mix[rng.Next() % mix.size()];
  return op;
}

lyric::Status BuildDatabase(WorkloadKind kind, lyric::Database* db) {
  LYRIC_RETURN_NOT_OK(lyric::office::BuildOfficeDatabase(db).status());
  if (kind == WorkloadKind::kSolverCold) {
    return lyric::office::AddScaledDesks(db, 48, /*seed=*/7,
                                         /*share_catalog=*/false);
  }
  return lyric::office::AddScaledDesks(db, 12, /*seed=*/7);
}

}  // namespace perfbench
