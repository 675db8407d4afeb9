#include "reference/rational.h"

#include <cassert>
#include <cmath>

namespace lyric::reference {

Rational::Rational(BigInt num, BigInt den)
    : num_(std::move(num)), den_(std::move(den)) {
  assert(!den_.IsZero() && "Rational with zero denominator");
  if (den_.IsZero()) den_ = BigInt(1);  // Degrade gracefully in release.
  Normalize();
}

void Rational::Normalize() {
  if (den_.IsNegative()) {
    num_ = -num_;
    den_ = -den_;
  }
  if (num_.IsZero()) {
    den_ = BigInt(1);
    return;
  }
  BigInt g = BigInt::Gcd(num_, den_);
  if (g != BigInt(1)) {
    num_ = num_ / g;
    den_ = den_ / g;
  }
}

Result<Rational> Rational::FromString(const std::string& s) {
  size_t slash = s.find('/');
  if (slash != std::string::npos) {
    LYRIC_ASSIGN_OR_RETURN(BigInt num, BigInt::FromString(s.substr(0, slash)));
    LYRIC_ASSIGN_OR_RETURN(BigInt den,
                           BigInt::FromString(s.substr(slash + 1)));
    if (den.IsZero()) {
      return Status::ArithmeticError("zero denominator in '" + s + "'");
    }
    return Rational(std::move(num), std::move(den));
  }
  size_t dot = s.find('.');
  if (dot != std::string::npos) {
    std::string digits = s.substr(0, dot) + s.substr(dot + 1);
    size_t frac_len = s.size() - dot - 1;
    if (frac_len == 0) {
      return Status::ArithmeticError("bad decimal literal '" + s + "'");
    }
    LYRIC_ASSIGN_OR_RETURN(BigInt num, BigInt::FromString(digits));
    BigInt den(1);
    const BigInt ten(10);
    for (size_t i = 0; i < frac_len; ++i) den *= ten;
    return Rational(std::move(num), std::move(den));
  }
  LYRIC_ASSIGN_OR_RETURN(BigInt num, BigInt::FromString(s));
  return Rational(std::move(num), BigInt(1));
}

Rational Rational::FromDouble(double v) {
  assert(std::isfinite(v));
  // Every finite double is m * 2^e with integer m; extract exactly.
  int exp = 0;
  double mant = std::frexp(v, &exp);  // v = mant * 2^exp, |mant| in [0.5, 1)
  // Scale mantissa to an integer (53 bits suffice).
  int64_t m = static_cast<int64_t>(std::ldexp(mant, 53));
  exp -= 53;
  BigInt num(m);
  BigInt den(1);
  const BigInt two(2);
  if (exp >= 0) {
    for (int i = 0; i < exp; ++i) num *= two;
  } else {
    for (int i = 0; i < -exp; ++i) den *= two;
  }
  return Rational(std::move(num), std::move(den));
}

Rational Rational::operator-() const {
  Rational out = *this;
  out.num_ = -out.num_;
  return out;
}

Rational Rational::operator+(const Rational& o) const {
  return Rational(num_ * o.den_ + o.num_ * den_, den_ * o.den_);
}

Rational Rational::operator-(const Rational& o) const {
  return Rational(num_ * o.den_ - o.num_ * den_, den_ * o.den_);
}

Rational Rational::operator*(const Rational& o) const {
  return Rational(num_ * o.num_, den_ * o.den_);
}

Rational Rational::operator/(const Rational& o) const {
  assert(!o.IsZero() && "Rational division by zero");
  if (o.IsZero()) return Rational();
  return Rational(num_ * o.den_, den_ * o.num_);
}

int Rational::Compare(const Rational& o) const {
  // Denominators are positive, so cross-multiplication preserves order.
  return (num_ * o.den_).Compare(o.num_ * den_);
}

Rational Rational::Inverse() const {
  assert(!IsZero() && "inverse of zero");
  if (IsZero()) return Rational();
  return Rational(den_, num_);
}

Rational Rational::Abs() const {
  Rational out = *this;
  out.num_ = out.num_.Abs();
  return out;
}

std::string Rational::ToString() const {
  if (IsInteger()) return num_.ToString();
  return num_.ToString() + "/" + den_.ToString();
}

double Rational::ToDouble() const { return num_.ToDouble() / den_.ToDouble(); }

size_t Rational::Hash() const {
  size_t h = num_.Hash();
  h ^= den_.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

}  // namespace lyric::reference
