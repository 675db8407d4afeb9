// Manufacturing and warehouse support (§1.2): linear programming
// generalized to a database of constraints.
//
// A chemical factory makes two products from three raw materials through
// alternative manufacturing processes, each described by linear
// constraints relating consumed materials (m1, m2, m3) to produced
// quantities (p1, p2). The classical LP "system of constraints" becomes a
// stored constraint per process; the objective function becomes a query.
// Answers reproduce the paper's question list: the connection among
// required raw materials for an order, purchase planning, producible
// ranges from stock, fill-from-inventory checks, and best-process
// selection.

#include <iostream>

#include "object/database.h"
#include "query/evaluator.h"

using namespace lyric;  // NOLINT - example code.

namespace {

LinearExpr V(const char* n) { return LinearExpr::Var(Variable::Intern(n)); }
LinearExpr C(int64_t v) { return LinearExpr::Constant(Rational(v)); }

std::vector<VarId> ProcessDims() {
  return {Variable::Intern("m1"), Variable::Intern("m2"),
          Variable::Intern("m3"), Variable::Intern("p1"),
          Variable::Intern("p2")};
}

Status Setup(Database* db) {
  ClassDef process;
  process.name = "Process";
  process.attributes = {
      {"pname", false, kStringClass, {}},
      {"setup_cost", false, kIntClass, {}},
      {"io", false, kCstClass, {"m1", "m2", "m3", "p1", "p2"}},
  };
  LYRIC_RETURN_NOT_OK(db->AddClass(process));

  ClassDef order;
  order.name = "Order";
  order.attributes = {
      {"customer", false, kStringClass, {}},
      {"demand", false, kCstClass, {"p1", "p2"}},
  };
  LYRIC_RETURN_NOT_OK(db->AddClass(order));

  ClassDef stock;
  stock.name = "Inventory";
  stock.attributes = {
      {"on_hand", false, kCstClass, {"m1", "m2", "m3"}},
  };
  LYRIC_RETURN_NOT_OK(db->AddClass(stock));

  auto add_process = [db](const std::string& name, int64_t cost,
                          Conjunction io) -> Status {
    Oid oid = Oid::Symbol(name);
    LYRIC_RETURN_NOT_OK(db->Insert(oid, "Process"));
    LYRIC_RETURN_NOT_OK(
        db->SetAttribute(oid, "pname", Value::Scalar(Oid::Str(name))));
    LYRIC_RETURN_NOT_OK(
        db->SetAttribute(oid, "setup_cost", Value::Scalar(Oid::Int(cost))));
    LYRIC_ASSIGN_OR_RETURN(
        CstObject obj, CstObject::FromConjunction(ProcessDims(), io));
    LYRIC_RETURN_NOT_OK(db->SetCstAttribute(oid, "io", obj).status());
    return Status::OK();
  };

  // Non-negativity shared by both processes.
  auto base = [] {
    Conjunction c;
    for (const char* v : {"m1", "m2", "m3", "p1", "p2"}) {
      c.Add(LinearConstraint::Ge(V(v), C(0)));
    }
    return c;
  };

  // Classic process: p1 needs 2 m1 + 1 m2; p2 needs 1 m1 + 3 m3; reactor
  // capacity bounds total throughput.
  Conjunction classic = base();
  classic.Add(LinearConstraint::Ge(
      V("m1"), V("p1").Scale(Rational(2)) + V("p2")));
  classic.Add(LinearConstraint::Ge(V("m2"), V("p1")));
  classic.Add(LinearConstraint::Ge(V("m3"), V("p2").Scale(Rational(3))));
  classic.Add(LinearConstraint::Le(V("p1") + V("p2"), C(60)));
  LYRIC_RETURN_NOT_OK(add_process("classic_reactor", 100, classic));

  // Catalytic process: cheaper in m1, pays in m2, higher throughput.
  Conjunction catalytic = base();
  catalytic.Add(LinearConstraint::Ge(
      V("m1"), V("p1") + V("p2").Scale(Rational(1, 2))));
  catalytic.Add(LinearConstraint::Ge(
      V("m2"), V("p1").Scale(Rational(2)) + V("p2")));
  catalytic.Add(LinearConstraint::Ge(V("m3"), V("p2").Scale(Rational(2))));
  catalytic.Add(LinearConstraint::Le(V("p1") + V("p2"), C(80)));
  LYRIC_RETURN_NOT_OK(add_process("catalytic_reactor", 250, catalytic));

  // Orders.
  auto add_order = [db](const std::string& name, int64_t q1,
                        int64_t q2) -> Status {
    Oid oid = Oid::Symbol(name);
    LYRIC_RETURN_NOT_OK(db->Insert(oid, "Order"));
    LYRIC_RETURN_NOT_OK(
        db->SetAttribute(oid, "customer", Value::Scalar(Oid::Str(name))));
    Conjunction demand;
    demand.Add(LinearConstraint::Ge(V("p1"), C(q1)));
    demand.Add(LinearConstraint::Ge(V("p2"), C(q2)));
    LYRIC_ASSIGN_OR_RETURN(
        CstObject obj,
        CstObject::FromConjunction(
            {Variable::Intern("p1"), Variable::Intern("p2")}, demand));
    LYRIC_RETURN_NOT_OK(db->SetCstAttribute(oid, "demand", obj).status());
    return Status::OK();
  };
  LYRIC_RETURN_NOT_OK(add_order("acme", 20, 10));
  LYRIC_RETURN_NOT_OK(add_order("globex", 5, 30));

  // Inventory on hand.
  Oid inv = Oid::Symbol("warehouse");
  LYRIC_RETURN_NOT_OK(db->Insert(inv, "Inventory"));
  Conjunction on_hand;
  on_hand.Add(LinearConstraint::Ge(V("m1"), C(0)));
  on_hand.Add(LinearConstraint::Le(V("m1"), C(70)));
  on_hand.Add(LinearConstraint::Ge(V("m2"), C(0)));
  on_hand.Add(LinearConstraint::Le(V("m2"), C(40)));
  on_hand.Add(LinearConstraint::Ge(V("m3"), C(0)));
  on_hand.Add(LinearConstraint::Le(V("m3"), C(90)));
  LYRIC_ASSIGN_OR_RETURN(
      CstObject obj,
      CstObject::FromConjunction({Variable::Intern("m1"),
                                  Variable::Intern("m2"),
                                  Variable::Intern("m3")},
                                 on_hand));
  LYRIC_RETURN_NOT_OK(db->SetCstAttribute(inv, "on_hand", obj).status());
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

  // 1. "For each order of a product, what is the connection (described by
  // constraints) among the required raw materials?"
  auto connection = ev.Execute(
      "SELECT O.customer, P.pname, "
      "((m1, m2, m3) | IO(m1, m2, m3, p1, p2) and DEM(p1, p2)) "
      "FROM Order O, Process P WHERE O.demand[DEM] and P.io[IO]");
  std::cout << "Raw-material connection per order and process:\n"
            << connection.value().ToString() << "\n\n";

  // 2. "How much of each raw material should be purchased in order to
  // satisfy all current orders?" (joint demand, classic reactor)
  auto purchase = ev.Execute(
      "SELECT MIN(m1 SUBJECT TO ((m1) | IO(m1, m2, m3, p1, p2) and "
      "D1(p1, p2) and D2(p1, p2))), "
      "MIN(m2 SUBJECT TO ((m2) | IO(m1, m2, m3, p1, p2) and "
      "D1(p1, p2) and D2(p1, p2))), "
      "MIN(m3 SUBJECT TO ((m3) | IO(m1, m2, m3, p1, p2) and "
      "D1(p1, p2) and D2(p1, p2))) "
      "FROM Process P, Order O1, Order O2 "
      "WHERE P.pname = 'classic_reactor' and P.io[IO] and "
      "O1.customer = 'acme' and O1.demand[D1] and "
      "O2.customer = 'globex' and O2.demand[D2]");
  std::cout << "Minimum purchases (m1, m2, m3) to fill all orders "
               "(classic reactor):\n"
            << purchase.value().ToString() << "\n\n";

  // 3. "What are the ranges of and the connection among the quantities of
  // all products that can be produced using the raw materials currently
  // in stock?"
  auto ranges = ev.Execute(
      "SELECT P.pname, ((p1, p2) | IO(m1, m2, m3, p1, p2) and "
      "STOCK(m1, m2, m3)) "
      "FROM Process P, Inventory I WHERE P.io[IO] and I.on_hand[STOCK]");
  std::cout << "Producible (p1, p2) regions from stock:\n"
            << ranges.value().ToString() << "\n\n";

  // 4. "Can an order be filled only by using raw materials in inventory?"
  auto fillable = ev.Execute(
      "SELECT O.customer, P.pname FROM Order O, Process P, Inventory I "
      "WHERE O.demand[DEM] and P.io[IO] and I.on_hand[STOCK] and "
      "SAT(IO(m1, m2, m3, p1, p2) and DEM(p1, p2) and STOCK(m1, m2, m3))");
  std::cout << "Orders fillable from inventory (per process):\n"
            << fillable.value().ToString() << "\n\n";

  // 5. "What is the best manufacturing process for a given set of
  // orders?" — maximize profit 7*p1 + 5*p2 - materials cost over stock.
  auto best = ev.Execute(
      "SELECT P.pname, MAX(7 * p1 + 5 * p2 - m1 - m2 - m3 SUBJECT TO "
      "((p1, p2) | IO(m1, m2, m3, p1, p2) and STOCK(m1, m2, m3))) "
      "FROM Process P, Inventory I WHERE P.io[IO] and I.on_hand[STOCK]");
  std::cout << "Profit potential per process (7 p1 + 5 p2 - materials):\n"
            << best.value().ToString() << "\n\n";

  // 6. "Is it possible to improve the profit by 5% by buying some amount
  // of a single raw material and then using a better manufacturing
  // process?" — compare each process's optimum with m2 relaxed by 20.
  auto improved = ev.Execute(
      "SELECT P.pname, MAX(7 * p1 + 5 * p2 - m1 - m2 - m3 SUBJECT TO "
      "((p1, p2) | IO(m1, m2, m3, p1, p2) and STOCK(m1, m2stock, m3) and "
      "0 <= m2 and m2 <= 60)) "
      "FROM Process P, Inventory I WHERE P.io[IO] and I.on_hand[STOCK]");
  if (improved.ok()) {
    std::cout << "Profit with 20 extra units of m2 purchasable:\n"
              << improved->ToString() << "\n";
  } else {
    std::cout << "(variant query unsupported: " << improved.status()
              << ")\n";
  }
  return 0;
}
