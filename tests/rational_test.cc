#include "arith/rational.h"

#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "reference/bigint.h"
#include "reference/rational.h"

namespace lyric {
namespace {

TEST(RationalTest, CanonicalForm) {
  Rational r(6, 8);
  EXPECT_EQ(r.num(), BigInt(3));
  EXPECT_EQ(r.den(), BigInt(4));
  Rational neg(3, -6);
  EXPECT_EQ(neg.num(), BigInt(-1));
  EXPECT_EQ(neg.den(), BigInt(2));
  Rational z(0, 17);
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.den(), BigInt(1));
}

TEST(RationalTest, EqualityIsStructural) {
  EXPECT_EQ(Rational(1, 2), Rational(2, 4));
  EXPECT_EQ(Rational(-1, 2), Rational(1, -2));
  EXPECT_NE(Rational(1, 2), Rational(1, 3));
}

TEST(RationalTest, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6));
  EXPECT_EQ(Rational(2, 3) * Rational(3, 4), Rational(1, 2));
  EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2));
  EXPECT_EQ(-Rational(1, 2), Rational(-1, 2));
}

TEST(RationalTest, Comparison) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(-1, 3));
  EXPECT_LE(Rational(1, 2), Rational(2, 4));
  EXPECT_GT(Rational(7, 2), Rational(3));
}

TEST(RationalTest, FromStringForms) {
  EXPECT_EQ(Rational::FromString("3").value(), Rational(3));
  EXPECT_EQ(Rational::FromString("-7/2").value(), Rational(-7, 2));
  EXPECT_EQ(Rational::FromString("1.25").value(), Rational(5, 4));
  EXPECT_EQ(Rational::FromString("-0.5").value(), Rational(-1, 2));
  EXPECT_FALSE(Rational::FromString("1/0").ok());
  EXPECT_FALSE(Rational::FromString("a").ok());
  EXPECT_FALSE(Rational::FromString("1.").ok());
}

TEST(RationalTest, FromDoubleExact) {
  EXPECT_EQ(Rational::FromDouble(0.5), Rational(1, 2));
  EXPECT_EQ(Rational::FromDouble(-0.25), Rational(-1, 4));
  EXPECT_EQ(Rational::FromDouble(3.0), Rational(3));
  EXPECT_EQ(Rational::FromDouble(0.0), Rational(0));
}

TEST(RationalTest, ToStringForms) {
  EXPECT_EQ(Rational(3).ToString(), "3");
  EXPECT_EQ(Rational(-7, 2).ToString(), "-7/2");
  EXPECT_EQ(Rational(0).ToString(), "0");
}

TEST(RationalTest, InverseAndAbs) {
  EXPECT_EQ(Rational(2, 3).Inverse(), Rational(3, 2));
  EXPECT_EQ(Rational(-2, 3).Inverse(), Rational(-3, 2));
  EXPECT_EQ(Rational(-5, 7).Abs(), Rational(5, 7));
}

TEST(RationalTest, FieldAxiomsRandomized) {
  std::mt19937_64 rng(5);
  auto rand_rat = [&]() {
    int64_t num = static_cast<int64_t>(rng() % 2001) - 1000;
    int64_t den = static_cast<int64_t>(rng() % 999) + 1;
    return Rational(num, den);
  };
  for (int i = 0; i < 300; ++i) {
    Rational a = rand_rat(), b = rand_rat(), c = rand_rat();
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    if (!a.IsZero()) {
      EXPECT_EQ(a * a.Inverse(), Rational(1));
      EXPECT_EQ(b / a * a, b);
    }
  }
}

TEST(RationalTest, NoPrecisionLossInLongSums) {
  // 1/3 summed 3000 times is exactly 1000 — the reason constraints use
  // Rational, not double.
  Rational sum;
  for (int i = 0; i < 3000; ++i) sum += Rational(1, 3);
  EXPECT_EQ(sum, Rational(1000));
}

TEST(RationalTest, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(1, 2).ToDouble(), 0.5);
  EXPECT_DOUBLE_EQ(Rational(-7, 4).ToDouble(), -1.75);
}

// ---------------------------------------------------------------------------
// Differential test against the reference arithmetic (tests/reference/, the
// engine's earlier BigInt/Rational, which runs every operation through
// BigInt limbs and a gcd). Seeded random operation sequences over values
// near 0, around 2^30, at INT64_MIN/INT64_MAX +- small, and beyond 2^64
// must agree exactly: the rendered value, the representation (inline iff
// it fits int64), comparisons, and hashes.
// ---------------------------------------------------------------------------

using RefInt = reference::BigInt;
using RefRational = reference::Rational;

// Draws a reference value from one of the magnitude bands.
RefInt DrawInt(std::mt19937_64& rng) {
  auto small = [&](int64_t span) {
    return static_cast<int64_t>(rng() % (2 * span + 1)) - span;
  };
  switch (rng() % 6) {
    case 0:
    case 1:
      return RefInt(small(12));
    case 2:
      // Mid-sized: two of these multiply inside int64, three need not.
      return RefInt(small(int64_t{1} << 30));
    case 3:
      return RefInt(INT64_MAX) + RefInt(small(4));
    case 4:
      return RefInt(INT64_MIN) + RefInt(small(4));
    default: {
      // Beyond 2^64: up to ~2^127 in magnitude.
      RefInt two_to_32(int64_t{1} << 32);
      int64_t high = static_cast<int64_t>(rng() >> 1);
      if (rng() % 2) high = -high;
      return RefInt(high) * two_to_32 * two_to_32 + RefInt(small(1000));
    }
  }
}

BigInt ToFast(const RefInt& v) {
  return BigInt::FromString(v.ToString()).value();
}

// Both implementations must render, represent and hash a value alike.
void ExpectSameInt(const BigInt& fast, const RefInt& ref,
                   const std::string& what) {
  EXPECT_EQ(fast.ToString(), ref.ToString()) << what;
  EXPECT_EQ(fast.IsSmallRep(), ref.IsSmallRep()) << what;
  EXPECT_EQ(fast.Hash(), ref.Hash()) << what;
  EXPECT_EQ(fast.LimbCount(), ref.LimbCount()) << what;
}

int SignOf(int cmp) { return (cmp > 0) - (cmp < 0); }

class ArithDifferential : public ::testing::TestWithParam<int> {};

TEST_P(ArithDifferential, BigIntMatchesReference) {
  std::mt19937_64 rng(GetParam());
  struct Dual {
    BigInt fast;
    RefInt ref;
  };
  auto draw = [&]() {
    RefInt v = DrawInt(rng);
    return Dual{ToFast(v), v};
  };
  std::vector<Dual> pool;
  for (int i = 0; i < 24; ++i) pool.push_back(draw());
  for (int step = 0; step < 3000; ++step) {
    const Dual& a = pool[rng() % pool.size()];
    const Dual& b = pool[rng() % pool.size()];
    std::string what = a.ref.ToString() + " ? " + b.ref.ToString();
    EXPECT_EQ(SignOf(a.fast.Compare(b.fast)), SignOf(a.ref.Compare(b.ref)))
        << what;
    EXPECT_EQ(a.fast == b.fast, a.ref == b.ref) << what;
    Dual out;
    switch (rng() % 7) {
      case 0:
        out = {a.fast + b.fast, a.ref + b.ref};
        what += " +";
        break;
      case 1:
        out = {a.fast - b.fast, a.ref - b.ref};
        what += " -";
        break;
      case 2:
        out = {a.fast * b.fast, a.ref * b.ref};
        what += " *";
        break;
      case 3:
        if (b.ref.IsZero()) continue;
        out = {a.fast / b.fast, a.ref / b.ref};
        what += " /";
        break;
      case 4:
        if (b.ref.IsZero()) continue;
        out = {a.fast % b.fast, a.ref % b.ref};
        what += " %";
        break;
      case 5:
        out = {BigInt::Gcd(a.fast, b.fast), RefInt::Gcd(a.ref, b.ref)};
        what += " gcd";
        break;
      default:
        out = {-a.fast, -a.ref};
        what += " neg";
        break;
    }
    ExpectSameInt(out.fast, out.ref, what);
    // Equal values hash alike whichever route built them.
    BigInt reparsed = ToFast(out.ref);
    EXPECT_EQ(reparsed, out.fast) << what;
    EXPECT_EQ(reparsed.Hash(), out.fast.Hash()) << what;
    // Keep magnitudes bounded (the reference divides bit by bit), and keep
    // drawing fresh values so the pool does not drift toward small ones.
    pool[rng() % pool.size()] =
        out.ref.LimbCount() <= 6 ? std::move(out) : draw();
    if (step % 4 == 0) pool[rng() % pool.size()] = draw();
  }
}

TEST_P(ArithDifferential, RationalMatchesReference) {
  std::mt19937_64 rng(GetParam() + 1000);
  struct Dual {
    Rational fast;
    RefRational ref;
  };
  auto draw = [&]() {
    RefInt num = DrawInt(rng);
    RefInt den = DrawInt(rng);
    if (den.IsZero()) den = RefInt(1);
    return Dual{Rational(ToFast(num), ToFast(den)), RefRational(num, den)};
  };
  auto expect_same = [](const Dual& d, const std::string& what) {
    EXPECT_EQ(d.fast.ToString(), d.ref.ToString()) << what;
    EXPECT_EQ(d.fast.Hash(), d.ref.Hash()) << what;
    EXPECT_EQ(d.fast.num().IsSmallRep(), d.ref.num().IsSmallRep()) << what;
    EXPECT_EQ(d.fast.den().IsSmallRep(), d.ref.den().IsSmallRep()) << what;
  };
  std::vector<Dual> pool;
  for (int i = 0; i < 24; ++i) pool.push_back(draw());
  for (const Dual& d : pool) expect_same(d, "draw");
  for (int step = 0; step < 1500; ++step) {
    const Dual& a = pool[rng() % pool.size()];
    const Dual& b = pool[rng() % pool.size()];
    std::string what = a.ref.ToString() + " ? " + b.ref.ToString();
    EXPECT_EQ(SignOf(a.fast.Compare(b.fast)), SignOf(a.ref.Compare(b.ref)))
        << what;
    EXPECT_EQ(a.fast == b.fast, a.ref == b.ref) << what;
    Dual out;
    switch (rng() % 6) {
      case 0:
        out = {a.fast + b.fast, a.ref + b.ref};
        what += " +";
        break;
      case 1:
        out = {a.fast - b.fast, a.ref - b.ref};
        what += " -";
        break;
      case 2:
        out = {a.fast * b.fast, a.ref * b.ref};
        what += " *";
        break;
      case 3:
        if (b.ref.IsZero()) continue;
        out = {a.fast / b.fast, a.ref / b.ref};
        what += " /";
        break;
      case 4:
        if (a.ref.IsZero()) continue;
        out = {a.fast.Inverse(), a.ref.Inverse()};
        what += " inv";
        break;
      default:
        out = {-a.fast, -a.ref};
        what += " neg";
        break;
    }
    expect_same(out, what);
    // The same value reached another way is equal and hashes alike.
    Rational back = (out.fast + a.fast) - a.fast;
    EXPECT_EQ(back, out.fast) << what;
    EXPECT_EQ(back.Hash(), out.fast.Hash()) << what;
    size_t limbs = out.ref.num().LimbCount() + out.ref.den().LimbCount();
    pool[rng() % pool.size()] = limbs <= 6 ? std::move(out) : draw();
    if (step % 4 == 0) pool[rng() % pool.size()] = draw();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArithDifferential, ::testing::Range(1, 9));

}  // namespace
}  // namespace lyric
