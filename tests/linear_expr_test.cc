#include "constraint/linear_expr.h"

#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace lyric {
namespace {

class LinearExprTest : public ::testing::Test {
 protected:
  VarId x_ = Variable::Intern("x");
  VarId y_ = Variable::Intern("y");
  VarId z_ = Variable::Intern("z");
};

TEST_F(LinearExprTest, ZeroExpr) {
  LinearExpr e;
  EXPECT_TRUE(e.IsConstant());
  EXPECT_TRUE(e.constant().IsZero());
  EXPECT_EQ(e.ToString(), "0");
  EXPECT_TRUE(e.FreeVars().empty());
}

TEST_F(LinearExprTest, TermConstruction) {
  LinearExpr e = LinearExpr::Term(Rational(2), x_);
  EXPECT_EQ(e.Coeff(x_), Rational(2));
  EXPECT_EQ(e.Coeff(y_), Rational(0));
  EXPECT_EQ(e.FreeVars(), VarSet{x_});
}

TEST_F(LinearExprTest, ZeroCoefficientsNeverStored) {
  LinearExpr e = LinearExpr::Var(x_);
  e.AddTerm(x_, Rational(-1));
  EXPECT_TRUE(e.IsConstant());
  EXPECT_EQ(e, LinearExpr());
  e.AddTerm(y_, Rational(0));
  EXPECT_TRUE(e.terms().empty());
}

TEST_F(LinearExprTest, AdditionMergesTerms) {
  LinearExpr a = LinearExpr::Term(Rational(2), x_) + LinearExpr::Var(y_);
  LinearExpr b = LinearExpr::Term(Rational(3), x_) +
                 LinearExpr::Constant(Rational(5));
  LinearExpr sum = a + b;
  EXPECT_EQ(sum.Coeff(x_), Rational(5));
  EXPECT_EQ(sum.Coeff(y_), Rational(1));
  EXPECT_EQ(sum.constant(), Rational(5));
}

TEST_F(LinearExprTest, Scale) {
  LinearExpr e = LinearExpr::Term(Rational(2), x_) +
                 LinearExpr::Constant(Rational(3));
  LinearExpr s = e.Scale(Rational(1, 2));
  EXPECT_EQ(s.Coeff(x_), Rational(1));
  EXPECT_EQ(s.constant(), Rational(3, 2));
  EXPECT_EQ(e.Scale(Rational(0)), LinearExpr());
}

TEST_F(LinearExprTest, Substitute) {
  // x + 2y with x := 3z + 1  ->  3z + 2y + 1.
  LinearExpr e = LinearExpr::Var(x_) + LinearExpr::Term(Rational(2), y_);
  LinearExpr repl = LinearExpr::Term(Rational(3), z_) +
                    LinearExpr::Constant(Rational(1));
  LinearExpr out = e.Substitute(x_, repl);
  EXPECT_EQ(out.Coeff(x_), Rational(0));
  EXPECT_EQ(out.Coeff(y_), Rational(2));
  EXPECT_EQ(out.Coeff(z_), Rational(3));
  EXPECT_EQ(out.constant(), Rational(1));
}

TEST_F(LinearExprTest, SubstituteAbsentVarIsNoop) {
  LinearExpr e = LinearExpr::Var(y_);
  EXPECT_EQ(e.Substitute(x_, LinearExpr::Var(z_)), e);
}

TEST_F(LinearExprTest, Rename) {
  LinearExpr e = LinearExpr::Var(x_) + LinearExpr::Term(Rational(2), y_);
  std::map<VarId, VarId> renaming{{x_, z_}};
  LinearExpr out = e.Rename(renaming);
  EXPECT_EQ(out.Coeff(z_), Rational(1));
  EXPECT_EQ(out.Coeff(y_), Rational(2));
  EXPECT_EQ(out.Coeff(x_), Rational(0));
}

TEST_F(LinearExprTest, RenameMergingCollision) {
  // x + 2y with y -> x merges into 3x.
  LinearExpr e = LinearExpr::Var(x_) + LinearExpr::Term(Rational(2), y_);
  std::map<VarId, VarId> renaming{{y_, x_}};
  EXPECT_EQ(e.Rename(renaming).Coeff(x_), Rational(3));
}

TEST_F(LinearExprTest, Eval) {
  LinearExpr e = LinearExpr::Term(Rational(2), x_) +
                 LinearExpr::Term(Rational(-1), y_) +
                 LinearExpr::Constant(Rational(7));
  Assignment a{{x_, Rational(3)}, {y_, Rational(1, 2)}};
  EXPECT_EQ(e.Eval(a).value(), Rational(25, 2));
  Assignment missing{{x_, Rational(3)}};
  EXPECT_FALSE(e.Eval(missing).ok());
}

TEST_F(LinearExprTest, ToStringReadable) {
  LinearExpr e = LinearExpr::Term(Rational(2), x_) +
                 LinearExpr::Term(Rational(-3), y_) +
                 LinearExpr::Constant(Rational(-5));
  EXPECT_EQ(e.ToString(), "2*x - 3*y - 5");
  EXPECT_EQ(LinearExpr::Var(x_).ToString(), "x");
  EXPECT_EQ((-LinearExpr::Var(x_)).ToString(), "-x");
}

TEST_F(LinearExprTest, CompareTotalOrder) {
  LinearExpr a = LinearExpr::Var(x_);
  LinearExpr b = LinearExpr::Var(y_);
  LinearExpr c = LinearExpr::Var(x_) + LinearExpr::Constant(Rational(1));
  EXPECT_EQ(a.Compare(a), 0);
  EXPECT_EQ(a.Compare(b), -b.Compare(a) == 1 ? a.Compare(b) : a.Compare(b));
  EXPECT_NE(a.Compare(c), 0);
  EXPECT_EQ(a.Compare(c), -c.Compare(a));
}

// The old representation, kept as the model the flat term vector must
// match: a constant plus a std::map of non-zero coefficients.
struct ModelExpr {
  Rational constant;
  std::map<VarId, Rational> terms;

  void AddTerm(VarId var, const Rational& coeff) {
    if (coeff.IsZero()) return;
    Rational& c = terms[var];
    c += coeff;
    if (c.IsZero()) terms.erase(var);
  }
  ModelExpr Plus(const ModelExpr& o, const Rational& k) const {
    ModelExpr out = *this;
    out.constant += o.constant * k;
    for (const auto& [var, coeff] : o.terms) out.AddTerm(var, coeff * k);
    return out;
  }
  ModelExpr Scale(const Rational& k) const {
    return ModelExpr().Plus(*this, k);
  }
  ModelExpr Substitute(VarId var, const ModelExpr& replacement) const {
    auto it = terms.find(var);
    if (it == terms.end()) return *this;
    ModelExpr out = *this;
    out.terms.erase(var);
    return out.Plus(replacement, it->second);
  }
  ModelExpr Rename(const std::map<VarId, VarId>& renaming) const {
    ModelExpr out;
    out.constant = constant;
    for (const auto& [var, coeff] : terms) {
      auto it = renaming.find(var);
      out.AddTerm(it == renaming.end() ? var : it->second, coeff);
    }
    return out;
  }
  // Lexicographic on (variable, coefficient), then the constant.
  int Compare(const ModelExpr& o) const {
    auto it = terms.begin();
    auto jt = o.terms.begin();
    for (; it != terms.end() && jt != o.terms.end(); ++it, ++jt) {
      if (it->first != jt->first) return it->first < jt->first ? -1 : 1;
      int c = it->second.Compare(jt->second);
      if (c != 0) return c;
    }
    if (it != terms.end()) return 1;
    if (jt != o.terms.end()) return -1;
    return constant.Compare(o.constant);
  }
};

int Sign(int v) { return (v > 0) - (v < 0); }

// Builds the model's expression by adding its terms from the highest
// variable down, an order no operation below uses.
LinearExpr Rebuild(const ModelExpr& m) {
  LinearExpr out = LinearExpr::Constant(m.constant);
  for (auto it = m.terms.rbegin(); it != m.terms.rend(); ++it) {
    out.AddTerm(it->first, it->second);
  }
  return out;
}

void ExpectMatches(const LinearExpr& e, const ModelExpr& m,
                   const std::vector<VarId>& pool) {
  ASSERT_EQ(e.terms().size(), m.terms.size()) << e.ToString();
  auto mt = m.terms.begin();
  for (const auto& [var, coeff] : e.terms()) {
    EXPECT_EQ(var, mt->first) << e.ToString();
    EXPECT_EQ(coeff, mt->second) << e.ToString();
    EXPECT_FALSE(coeff.IsZero()) << e.ToString();
    ++mt;
  }
  EXPECT_EQ(e.constant(), m.constant);
  for (VarId v : pool) {
    auto it = m.terms.find(v);
    EXPECT_EQ(e.Coeff(v), it == m.terms.end() ? Rational(0) : it->second);
  }
  LinearExpr rebuilt = Rebuild(m);
  EXPECT_TRUE(e == rebuilt) << e.ToString();
  EXPECT_EQ(e.Compare(rebuilt), 0);
  EXPECT_EQ(e.Hash(), rebuilt.Hash());
  EXPECT_EQ(e.ToString(), rebuilt.ToString());
}

class LinearExprModel : public ::testing::TestWithParam<int> {};

// Seeded operation sequences on the sorted term vector, each step checked
// against the map model: term order, coefficients, equality, Compare, and
// that an equal expression built in another order hashes and prints the
// same.
TEST_P(LinearExprModel, FlatTermsMatchTheMapModel) {
  std::mt19937_64 rng(static_cast<uint64_t>(GetParam()) * 7919 + 3);
  // Intern the pool in a shuffled order so that ids and names disagree.
  std::vector<std::string> names = {"ma", "mb", "mc", "md", "me", "mf"};
  std::shuffle(names.begin(), names.end(), rng);
  std::vector<VarId> pool;
  for (const std::string& n : names) pool.push_back(Variable::Intern(n));
  auto coeff = [&]() {
    int64_t num = static_cast<int64_t>(rng() % 9) - 4;
    int64_t den = 1 + static_cast<int64_t>(rng() % 3);
    return Rational(num, den);
  };
  auto pick = [&]() { return pool[rng() % pool.size()]; };
  auto random_pair = [&]() {
    LinearExpr e = LinearExpr::Constant(coeff());
    ModelExpr m;
    m.constant = e.constant();
    for (int i = 0; i < 3; ++i) {
      VarId v = pick();
      Rational k = coeff();
      e.AddTerm(v, k);
      m.AddTerm(v, k);
    }
    return std::make_pair(e, m);
  };

  LinearExpr e;
  ModelExpr m;
  for (int step = 0; step < 200; ++step) {
    switch (rng() % 9) {
      case 0:
      case 1: {
        VarId v = pick();
        // Half the time cancel the variable's coefficient exactly.
        Rational k = rng() % 2 == 0 ? -e.Coeff(v) : coeff();
        e.AddTerm(v, k);
        m.AddTerm(v, k);
        break;
      }
      case 2: {
        auto [o, om] = random_pair();
        e = e + o;
        m = m.Plus(om, Rational(1));
        break;
      }
      case 3: {
        // Subtracting a copy of part of e cancels shared terms.
        auto [o, om] = random_pair();
        if (rng() % 2 == 0) {
          o = e.Scale(Rational(1, 2));
          om = m.Scale(Rational(1, 2));
        }
        e = e - o;
        m = m.Plus(om, Rational(-1));
        break;
      }
      case 4:
        e = -e;
        m = m.Scale(Rational(-1));
        break;
      case 5: {
        Rational k = rng() % 4 == 0 ? Rational(0) : coeff();
        e = e.Scale(k);
        m = m.Scale(k);
        break;
      }
      case 6: {
        VarId v = pick();
        auto [r, rm] = random_pair();
        r.AddTerm(v, -r.Coeff(v));
        rm.terms.erase(v);
        e = e.Substitute(v, r);
        m = m.Substitute(v, rm);
        break;
      }
      case 7: {
        // Injective: a random permutation of the pool.
        std::vector<VarId> image = pool;
        std::shuffle(image.begin(), image.end(), rng);
        std::map<VarId, VarId> renaming;
        for (size_t i = 0; i < pool.size(); ++i) renaming[pool[i]] = image[i];
        e = e.Rename(renaming);
        m = m.Rename(renaming);
        break;
      }
      case 8: {
        // Colliding: two variables onto one, which merges coefficients.
        std::map<VarId, VarId> renaming{{pick(), pick()}, {pick(), pick()}};
        e = e.Rename(renaming);
        m = m.Rename(renaming);
        break;
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(e, m, pool)) << "step " << step;
    auto [o, om] = random_pair();
    EXPECT_EQ(Sign(e.Compare(o)), Sign(m.Compare(om)))
        << e.ToString() << " vs " << o.ToString();
    EXPECT_EQ(e == o, m.Compare(om) == 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearExprModel, ::testing::Range(1, 11));

}  // namespace
}  // namespace lyric
