// Application-shaped integration tests: the §1.2 MDA and manufacturing
// workloads with asserted answers (the examples print these; here they
// are pinned).

#include <gtest/gtest.h>

#include "object/database.h"
#include "query/evaluator.h"

namespace lyric {
namespace {

LinearExpr V(const char* n) { return LinearExpr::Var(Variable::Intern(n)); }
LinearExpr C(int64_t v) { return LinearExpr::Constant(Rational(v)); }

class MdaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClassDef goal;
    goal.name = "Goal";
    goal.attributes = {
        {"gname", false, kStringClass, {}},
        {"region", false, kCstClass, {"course", "speed", "depth", "time"}},
    };
    ASSERT_TRUE(db_.AddClass(goal).ok());
    AddGoal("envelope", [](Conjunction* c) {
      c->Add(LinearConstraint::Ge(V("speed"), C(0)));
      c->Add(LinearConstraint::Le(V("speed"), C(30)));
      c->Add(LinearConstraint::Ge(V("depth"), C(0)));
      c->Add(LinearConstraint::Le(V("depth"), C(800)));
      c->Add(LinearConstraint::Ge(V("time"), C(0)));
      c->Add(LinearConstraint::Le(V("time"), C(60)));
    });
    AddGoal("quiet", [](Conjunction* c) {
      c->Add(LinearConstraint::Le(
          V("speed") + V("depth").Scale(Rational(1, 100)), C(18)));
    });
    AddGoal("deep_window", [](Conjunction* c) {
      c->Add(LinearConstraint::Ge(V("depth"), C(150)));
      c->Add(LinearConstraint::Le(V("depth"), C(250)));
    });
    AddGoal("early_only", [](Conjunction* c) {
      c->Add(LinearConstraint::Le(V("time"), C(10)));
    });
    AddGoal("late_only", [](Conjunction* c) {
      c->Add(LinearConstraint::Ge(V("time"), C(45)));
    });
  }

  template <typename Fn>
  void AddGoal(const std::string& name, Fn fill) {
    Oid oid = Oid::Symbol(name);
    ASSERT_TRUE(db_.Insert(oid, "Goal").ok());
    ASSERT_TRUE(
        db_.SetAttribute(oid, "gname", Value::Scalar(Oid::Str(name))).ok());
    Conjunction c;
    fill(&c);
    auto obj = CstObject::FromConjunction(
        {Variable::Intern("course"), Variable::Intern("speed"),
         Variable::Intern("depth"), Variable::Intern("time")},
        c);
    ASSERT_TRUE(obj.ok());
    ASSERT_TRUE(db_.SetCstAttribute(oid, "region", *obj).ok());
  }

  ResultSet Run(const std::string& text) {
    Evaluator ev(&db_);
    auto r = ev.Execute(text);
    EXPECT_TRUE(r.ok()) << text << "\n -> " << r.status();
    return r.ok() ? *r : ResultSet();
  }

  Database db_;
};

TEST_F(MdaTest, ContradictingGoalsDetected) {
  ResultSet r = Run(
      "SELECT G1.gname, G2.gname FROM Goal G1, Goal G2 "
      "WHERE G1.region[R1] and G2.region[R2] and "
      "not G1.gname = G2.gname and "
      "not SAT(R1(c, s, d, t) and R2(c, s, d, t))");
  // Exactly the early/late pair, both orders.
  ASSERT_EQ(r.size(), 2u);
  std::set<std::string> names;
  for (const auto& row : r.rows()) names.insert(row[0].AsString());
  EXPECT_TRUE(names.count("early_only"));
  EXPECT_TRUE(names.count("late_only"));
}

TEST_F(MdaTest, BestSpeedUnderJointGoals) {
  // max speed s.t. envelope, quiet, depth window: at depth 150,
  // speed <= 18 - 1.5 = 33/2.
  ResultSet r = Run(
      "SELECT MAX(speed SUBJECT TO ((speed) | E(c, s0, d, t) and "
      "Q(c, s0, d, t) and W(c, s0, d, t) and speed = s0)) "
      "FROM Goal GE, Goal GQ, Goal GW "
      "WHERE GE.gname = 'envelope' and GE.region[E] and "
      "GQ.gname = 'quiet' and GQ.region[Q] and "
      "GW.gname = 'deep_window' and GW.region[W]");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows()[0][0], Oid::Real(Rational(33, 2)));
}

TEST_F(MdaTest, GoalSubsumption) {
  // envelope conjoined with deep_window entails the envelope (trivially)
  // and also depth <= 300.
  ResultSet r = Run(
      "SELECT GW.gname FROM Goal GW, Goal GE "
      "WHERE GW.gname = 'deep_window' and GW.region[R] and "
      "GE.gname = 'envelope' and GE.region[E] and "
      "((d) | R(c, s, d, t) and E(c, s, d, t) and depth = d) "
      "|= ((d) | 150 <= d and d <= 250)");
  EXPECT_EQ(r.size(), 1u);
}

class ManufacturingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ClassDef process;
    process.name = "Process";
    process.attributes = {
        {"pname", false, kStringClass, {}},
        {"io", false, kCstClass, {"m1", "m2", "p1"}},
    };
    ASSERT_TRUE(db_.AddClass(process).ok());
    // p1 of product needs 2 m1 + 1 m2; capacity 50.
    Conjunction io;
    for (const char* v : {"m1", "m2", "p1"}) {
      io.Add(LinearConstraint::Ge(V(v), C(0)));
    }
    io.Add(LinearConstraint::Ge(V("m1"), V("p1").Scale(Rational(2))));
    io.Add(LinearConstraint::Ge(V("m2"), V("p1")));
    io.Add(LinearConstraint::Le(V("p1"), C(50)));
    Oid proc = Oid::Symbol("proc");
    ASSERT_TRUE(db_.Insert(proc, "Process").ok());
    ASSERT_TRUE(
        db_.SetAttribute(proc, "pname", Value::Scalar(Oid::Str("proc")))
            .ok());
    ASSERT_TRUE(db_.SetCstAttribute(
                      proc, "io",
                      CstObject::FromConjunction(
                          {Variable::Intern("m1"), Variable::Intern("m2"),
                           Variable::Intern("p1")},
                          io)
                          .value())
                    .ok());
  }

  ResultSet Run(const std::string& text) {
    Evaluator ev(&db_);
    auto r = ev.Execute(text);
    EXPECT_TRUE(r.ok()) << text << "\n -> " << r.status();
    return r.ok() ? *r : ResultSet();
  }

  Database db_;
};

TEST_F(ManufacturingTest, MinimalPurchaseForDemand) {
  // To make 20 units: at least 40 m1 and 20 m2.
  ResultSet r = Run(
      "SELECT MIN(m1 SUBJECT TO ((m1) | IO(m1, m2, p1) and p1 >= 20)), "
      "MIN(m2 SUBJECT TO ((m2) | IO(m1, m2, p1) and p1 >= 20)) "
      "FROM Process P WHERE P.io[IO]");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows()[0][0], Oid::Real(Rational(40)));
  EXPECT_EQ(r.rows()[0][1], Oid::Real(Rational(20)));
}

TEST_F(ManufacturingTest, ProducibleRangeFromStock) {
  // With 30 m1 and 100 m2: p1 in [0, 15].
  ResultSet r = Run(
      "SELECT ((p1) | IO(m1, m2, p1) and m1 <= 30 and m2 <= 100) "
      "FROM Process P WHERE P.io[IO]");
  ASSERT_EQ(r.size(), 1u);
  Evaluator ev(&db_);
  CstObject range = db_.GetCst(r.rows()[0][0]).value();
  EXPECT_TRUE(range.Contains({Rational(15)}).value());
  EXPECT_FALSE(range.Contains({Rational(16)}).value());
}

TEST_F(ManufacturingTest, ProfitQueryWithObjectiveOverTwoSpaces) {
  // max 3*p1 - m1 - m2 subject to the process: each unit nets 3-2-1 = 0;
  // optimum 0 (any production level) — the LP sees through it exactly.
  ResultSet r = Run(
      "SELECT MAX(3 * p1 - m1 - m2 SUBJECT TO ((p1) | IO(m1, m2, p1))) "
      "FROM Process P WHERE P.io[IO]");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.rows()[0][0], Oid::Real(Rational(0)));
}

}  // namespace
}  // namespace lyric
