// Submarine Maneuver Decision Aid (§1.2, after [BVCS93]).
//
// Maneuvers are points in a 4-dimensional space (course, speed, depth,
// time). Goals — "avoid land obstacle", "minimize speed", "maintain depth
// at 200 ft" and battle-management constraints — are CST objects over
// those dimensions. The decision aid finds maneuver regions satisfying
// interrelated and possibly contradicting goals, exactly the query shapes
// the paper sketches. The proprietary Naval Undersea Warfare Center data
// is substituted by a synthetic but structurally identical goal base
// (see DESIGN.md, substitutions).

#include <iostream>

#include "object/database.h"
#include "query/evaluator.h"

using namespace lyric;  // NOLINT - example code.

namespace {

LinearExpr V(const char* n) { return LinearExpr::Var(Variable::Intern(n)); }
LinearExpr C(int64_t v) { return LinearExpr::Constant(Rational(v)); }

std::vector<VarId> ManeuverDims() {
  return {Variable::Intern("course"), Variable::Intern("speed"),
          Variable::Intern("depth"), Variable::Intern("time")};
}

Status Setup(Database* db) {
  ClassDef goal;
  goal.name = "Goal";
  goal.attributes = {
      {"gname", false, kStringClass, {}},
      {"priority", false, kIntClass, {}},
      {"region", false, kCstClass, {"course", "speed", "depth", "time"}},
  };
  LYRIC_RETURN_NOT_OK(db->AddClass(goal));

  auto add_goal = [db](const std::string& name, int64_t priority,
                       Conjunction region) -> Status {
    Oid oid = Oid::Symbol(name);
    LYRIC_RETURN_NOT_OK(db->Insert(oid, "Goal"));
    LYRIC_RETURN_NOT_OK(
        db->SetAttribute(oid, "gname", Value::Scalar(Oid::Str(name))));
    LYRIC_RETURN_NOT_OK(db->SetAttribute(oid, "priority",
                                         Value::Scalar(Oid::Int(priority))));
    LYRIC_ASSIGN_OR_RETURN(CstObject obj,
                           CstObject::FromConjunction(ManeuverDims(),
                                                      std::move(region)));
    LYRIC_RETURN_NOT_OK(db->SetCstAttribute(oid, "region", obj).status());
    return Status::OK();
  };

  // Physical envelope: course in [0, 360), speed in [0, 30] kn, depth in
  // [0, 800] ft, horizon 0..60 min.
  Conjunction envelope;
  envelope.Add(LinearConstraint::Ge(V("course"), C(0)));
  envelope.Add(LinearConstraint::Lt(V("course"), C(360)));
  envelope.Add(LinearConstraint::Ge(V("speed"), C(0)));
  envelope.Add(LinearConstraint::Le(V("speed"), C(30)));
  envelope.Add(LinearConstraint::Ge(V("depth"), C(0)));
  envelope.Add(LinearConstraint::Le(V("depth"), C(800)));
  envelope.Add(LinearConstraint::Ge(V("time"), C(0)));
  envelope.Add(LinearConstraint::Le(V("time"), C(60)));
  LYRIC_RETURN_NOT_OK(add_goal("physical_envelope", 0, envelope));

  // Avoid a shoal ahead: for the first 20 minutes, keep depth below the
  // rising sea floor on courses 80..140.
  Conjunction shoal;
  shoal.Add(LinearConstraint::Ge(V("course"), C(80)));
  shoal.Add(LinearConstraint::Le(V("course"), C(140)));
  shoal.Add(LinearConstraint::Le(V("time"), C(20)));
  // depth <= 300 + 10 * time (the floor falls away over time).
  shoal.Add(LinearConstraint::Le(V("depth"),
                                 V("time").Scale(Rational(10)) + C(300)));
  LYRIC_RETURN_NOT_OK(add_goal("avoid_shoal", 3, shoal));

  // Maintain depth near 200 ft: 150 <= depth <= 250.
  Conjunction cruise_depth;
  cruise_depth.Add(LinearConstraint::Ge(V("depth"), C(150)));
  cruise_depth.Add(LinearConstraint::Le(V("depth"), C(250)));
  LYRIC_RETURN_NOT_OK(add_goal("maintain_depth_200", 2, cruise_depth));

  // Quiet running: speed + depth/100 <= 18 (faster is louder; deeper
  // hides more).
  Conjunction quiet;
  quiet.Add(LinearConstraint::Le(
      V("speed") + V("depth").Scale(Rational(1, 100)), C(18)));
  LYRIC_RETURN_NOT_OK(add_goal("quiet_running", 2, quiet));

  // Battle management: reach the rendezvous bearing by minute 45 —
  // course in [100, 120] once time >= 45 is modelled as a region over the
  // late window.
  Conjunction rendezvous;
  rendezvous.Add(LinearConstraint::Ge(V("time"), C(45)));
  rendezvous.Add(LinearConstraint::Ge(V("course"), C(100)));
  rendezvous.Add(LinearConstraint::Le(V("course"), C(120)));
  rendezvous.Add(LinearConstraint::Ge(V("speed"), C(12)));
  LYRIC_RETURN_NOT_OK(add_goal("rendezvous_window", 1, rendezvous));

  return Status::OK();
}

}  // namespace

int main() {
  Database db;
  if (auto st = Setup(&db); !st.ok()) {
    std::cerr << st << "\n";
    return 1;
  }
  Evaluator ev(&db);
  std::cout << "Maneuver Decision Aid: " << db.Extent("Goal").size()
            << " goals over (course, speed, depth, time).\n\n";

  // Which goals are individually achievable inside the envelope?
  auto feas = ev.Execute(
      "SELECT G.gname FROM Goal G, Goal ENV "
      "WHERE ENV.gname = 'physical_envelope' and ENV.region[E] and "
      "G.region[R] and "
      "SAT(R(course, speed, depth, time) and E(course, speed, depth, time))");
  std::cout << "Goals achievable inside the envelope:\n"
            << feas.value().ToString() << "\n\n";

  // The joint high-priority maneuver region (priority >= 2 goals),
  // projected onto (speed, depth) for the helmsman's display.
  auto region = ev.Execute(
      "SELECT ((speed, depth) | E(course, speed, depth, time) and "
      "R1(course, speed, depth, time) and R2(course, speed, depth, time)) "
      "FROM Goal ENV, Goal G1, Goal G2 "
      "WHERE ENV.gname = 'physical_envelope' and ENV.region[E] and "
      "G1.gname = 'maintain_depth_200' and G1.region[R1] and "
      "G2.gname = 'quiet_running' and G2.region[R2]");
  std::cout << "Speed/depth region satisfying depth + quiet goals:\n"
            << region.value().ToString() << "\n\n";

  // Does quiet running subsume the envelope's speed limit at depth 200?
  auto check = ev.Execute(
      "SELECT G.gname FROM Goal G "
      "WHERE G.region[R] and "
      "((speed) | R(course, speed, depth, time) and depth = 200) "
      "|= ((speed) | speed <= 16)");
  std::cout << "Goals forcing speed <= 16 kn at 200 ft:\n"
            << check.value().ToString() << "\n\n";

  // The best (fastest) maneuver meeting every standing goal at minute 50.
  auto best = ev.Execute(
      "SELECT MAX(speed SUBJECT TO ((speed) | "
      "E(course, speed, depth, time) and D(course, speed, depth, time) and "
      "Q(course, speed, depth, time) and RV(course, speed, depth, time) and "
      "time = 50)), "
      "MAX_POINT(speed SUBJECT TO ((speed) | "
      "E(course, speed, depth, time) and D(course, speed, depth, time) and "
      "Q(course, speed, depth, time) and RV(course, speed, depth, time) and "
      "time = 50)) "
      "FROM Goal ENV, Goal GD, Goal GQ, Goal GR "
      "WHERE ENV.gname = 'physical_envelope' and ENV.region[E] and "
      "GD.gname = 'maintain_depth_200' and GD.region[D] and "
      "GQ.gname = 'quiet_running' and GQ.region[Q] and "
      "GR.gname = 'rendezvous_window' and GR.region[RV]");
  std::cout << "Fastest maneuver meeting all goals at t = 50:\n"
            << best.value().ToString() << "\n\n";

  // Contradiction detection: shoal avoidance vs rendezvous (disjoint time
  // windows -> jointly unsatisfiable).
  auto conflict = ev.Execute(
      "SELECT G1.gname, G2.gname FROM Goal G1, Goal G2 "
      "WHERE G1.region[R1] and G2.region[R2] and G1.priority >= G2.priority "
      "and not G1.gname = G2.gname and "
      "not SAT(R1(course, speed, depth, time) and "
      "R2(course, speed, depth, time))");
  std::cout << "Mutually contradicting goal pairs:\n"
            << conflict.value().ToString() << "\n";
  return 0;
}
