// Operator chains of any length: a 1,000,000-term chain parses, analyzes
// (the §3 family pass included), builds, prints and is destroyed on the
// default stack. A sum or product is one n-ary node and an `and`, `or`
// or comparison chain one flat node, so no walker and no destructor
// recurses once per term; only nesting costs stack, and the parser bounds
// nesting at 64 levels.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "exec/governor.h"
#include "office/office_db.h"
#include "query/analyzer.h"
#include "query/formula_builder.h"
#include "query/parser.h"
#include "query/path_walker.h"

namespace lyric {
namespace {

constexpr size_t kTerms = 1000000;

// `n` copies of `term` joined by `sep`.
std::string Chain(const std::string& term, const std::string& sep, size_t n) {
  std::string out;
  out.reserve(n * (term.size() + sep.size()));
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += sep;
    out += term;
  }
  return out;
}

std::string Sat(const std::string& formula) {
  return "SELECT D FROM Desk D WHERE SAT(" + formula + ")";
}

class LongChainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ids = office::BuildOfficeDatabase(&db_);
    ASSERT_TRUE(ids.ok()) << ids.status();
  }

  // Parses and analyzes `text`, which must be error-free.
  ast::Query ParseAndCheck(const std::string& text) {
    Result<ast::Query> q = ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status();
    if (!q.ok()) return ast::Query();
    AnalysisReport report = Analyzer(&db_).Check(*q);
    EXPECT_FALSE(report.has_errors());
    declared_ = CollectDeclaredVars(*q, db_);
    return std::move(q).value();
  }

  // The value of `x <= <chain>`'s constant right-hand side.
  Rational AtomBound(const ast::Formula& atom) {
    EXPECT_EQ(atom.kind, ast::Formula::Kind::kAtom);
    FormulaBuilder fb(&db_, &declared_);
    Result<LinearExpr> rhs = fb.BuildArith(*atom.atom_rhs, Binding{});
    EXPECT_TRUE(rhs.ok()) << rhs.status();
    EXPECT_TRUE(rhs.ok() && rhs->IsConstant());
    return rhs.ok() ? rhs->constant() : Rational(0);
  }

  // Builds a WHERE SAT formula with an ungoverned builder.
  void ExpectBuilds(const ast::Formula& formula) {
    FormulaBuilder fb(&db_, &declared_);
    Result<DisjunctiveExistential> built = fb.Build(formula, Binding{});
    EXPECT_TRUE(built.ok()) << built.status();
  }

  // Building an `and` / `or` chain folds it quadratically (ROADMAP item
  // 6), so these builds run under a deadline, checked once per child.
  void ExpectBuildsOrStopsAtDeadline(const ast::Formula& formula) {
    exec::GovernorLimits limits;
    limits.deadline_ms = 200;
    exec::CancellationToken token(limits);
    exec::GovernorScope scope(&token);
    FormulaBuilder fb(&db_, &declared_);
    Result<DisjunctiveExistential> built = fb.Build(formula, Binding{});
    EXPECT_TRUE(built.ok() || built.status().IsDeadlineExceeded())
        << built.status();
  }

  Database db_;
  std::set<std::string> declared_;
};

// `(` × (n-1), n one-digit terms, n-1 " op " and n-1 `)`.
size_t ChainTextSize(size_t n) { return 6 * n - 5; }

TEST_F(LongChainTest, SumOfAMillionTerms) {
  ast::Query q = ParseAndCheck(Sat("x <= " + Chain("1", "+", kTerms)));
  const ast::Formula& atom = *q.where->formula;
  EXPECT_EQ(AtomBound(atom), Rational(static_cast<int64_t>(kTerms)));
  ExpectBuilds(atom);
  std::string text = atom.atom_rhs->ToString();
  EXPECT_EQ(text.size(), ChainTextSize(kTerms));
  EXPECT_EQ(text.substr(text.size() - 12), "1) + 1) + 1)");
}

TEST_F(LongChainTest, DifferenceOfAMillionTerms) {
  ast::Query q = ParseAndCheck(Sat("x <= " + Chain("1", "-", kTerms)));
  const ast::Formula& atom = *q.where->formula;
  EXPECT_EQ(AtomBound(atom), Rational(2 - static_cast<int64_t>(kTerms)));
  ExpectBuilds(atom);
  EXPECT_EQ(atom.atom_rhs->ToString().size(), ChainTextSize(kTerms));
}

TEST_F(LongChainTest, ProductOfAMillionFactors) {
  ast::Query q = ParseAndCheck(Sat("x <= " + Chain("1", "*", kTerms)));
  const ast::Formula& atom = *q.where->formula;
  EXPECT_EQ(AtomBound(atom), Rational(1));
  ExpectBuilds(atom);
  EXPECT_EQ(atom.atom_rhs->ToString().size(), ChainTextSize(kTerms));
}

TEST_F(LongChainTest, QuotientOfAMillionFactors) {
  ast::Query q = ParseAndCheck(Sat("x <= " + Chain("1", "/", kTerms)));
  const ast::Formula& atom = *q.where->formula;
  EXPECT_EQ(AtomBound(atom), Rational(1));
  ExpectBuilds(atom);
  EXPECT_EQ(atom.atom_rhs->ToString().size(), ChainTextSize(kTerms));
}

TEST_F(LongChainTest, MixedSumOfProducts) {
  // 1*2 + 1*2 + ...: kTerms / 2 products of two factors.
  ast::Query q = ParseAndCheck(Sat("x <= " + Chain("1*2", "+", kTerms / 2)));
  const ast::Formula& atom = *q.where->formula;
  EXPECT_EQ(AtomBound(atom), Rational(static_cast<int64_t>(kTerms)));
  ExpectBuilds(atom);
  EXPECT_EQ(atom.atom_rhs->ToString().substr(0, 8), "((((((((");
}

TEST_F(LongChainTest, MaxObjectiveOfAMillionTerms) {
  ast::Query q = ParseAndCheck(
      "SELECT MAX(" + Chain("w", "+", kTerms) +
      " SUBJECT TO ((w) | 0 <= w and w <= 1)) FROM Desk D");
  const ast::SelectItem& item = q.select[0];
  FormulaBuilder fb(&db_, &declared_);
  Result<LinearExpr> objective = fb.BuildArith(*item.objective, Binding{});
  ASSERT_TRUE(objective.ok()) << objective.status();
  EXPECT_EQ(objective->Coeff(Variable::Intern("w")),
            Rational(static_cast<int64_t>(kTerms)));
  ExpectBuilds(*item.formula);
  EXPECT_EQ(item.objective->ToString().size(), ChainTextSize(kTerms));
}

TEST_F(LongChainTest, AndOfAMillionAtoms) {
  ast::Query q = ParseAndCheck(Sat(Chain("x <= 1", " and ", kTerms)));
  const ast::Formula& chain = *q.where->formula;
  ASSERT_EQ(chain.kind, ast::Formula::Kind::kAnd);
  EXPECT_EQ(chain.children.size(), kTerms);
  ExpectBuildsOrStopsAtDeadline(chain);
  EXPECT_EQ(chain.ToString().size(), kTerms * 13 - 5);
}

TEST_F(LongChainTest, OrOfAMillionAtoms) {
  ast::Query q = ParseAndCheck(Sat(Chain("x <= 1", " or ", kTerms)));
  const ast::Formula& chain = *q.where->formula;
  ASSERT_EQ(chain.kind, ast::Formula::Kind::kOr);
  EXPECT_EQ(chain.children.size(), kTerms);
  ExpectBuildsOrStopsAtDeadline(chain);
  EXPECT_EQ(chain.ToString().size(), kTerms * 12 - 4);
}

TEST_F(LongChainTest, ComparisonChainOfAMillionRelations) {
  ast::Query q = ParseAndCheck(Sat(Chain("x", " <= ", kTerms + 1)));
  const ast::Formula& chain = *q.where->formula;
  ASSERT_EQ(chain.kind, ast::Formula::Kind::kAnd);
  EXPECT_EQ(chain.children.size(), kTerms);
  ExpectBuildsOrStopsAtDeadline(chain);
  EXPECT_EQ(chain.ToString().size(), kTerms * 13 - 5);
}

// WHERE conditions share the formulas' and/or/not ladder. A condition
// node is several times an atom's size, so this chain is shorter.
TEST_F(LongChainTest, WhereAndOfAHundredThousandConditions) {
  ast::Query q = ParseAndCheck("SELECT D FROM Desk D WHERE " +
                               Chain("D.color = 'red'", " and ", kTerms / 10));
  ASSERT_EQ(q.where->kind, ast::WhereExpr::Kind::kAnd);
  EXPECT_EQ(q.where->children.size(), kTerms / 10);
}

}  // namespace
}  // namespace lyric
