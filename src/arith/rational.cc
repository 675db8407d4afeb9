#include "arith/rational.h"

#include <cassert>
#include <cmath>

#include "arith/small_int.h"

namespace lyric {

static_assert(sizeof(Rational) == 32, "Rational is two 16-byte BigInts");

using arith_internal::FitsInt64;
using arith_internal::Gcd64;
using arith_internal::Magnitude;

namespace {

// The int64 fast paths below take reduced operands with positive
// denominators and produce the reduced result in *num / *den. They return
// false, leaving the outputs unspecified, when a value they need leaves
// int64; the caller then takes the BigInt path, which yields the same
// canonical value.

// a/b + c/d (Knuth, TAOCP 4.5.1). `c` is wide so that subtraction can pass
// -INT64_MIN.
bool AddSmall(int64_t a, int64_t b, __int128 c, int64_t d, int64_t* num,
              int64_t* den) {
  if (b == 1 && d == 1) {
    __int128 t = a + c;
    if (!FitsInt64(t)) return false;
    *num = static_cast<int64_t>(t);
    *den = 1;
    return true;
  }
  // g1 = gcd(b, d) divides the new denominator b*d/g1; only its common
  // factor g2 with the numerator t needs removing.
  int64_t g1 = static_cast<int64_t>(Gcd64(b, d));
  int64_t b1 = b / g1;
  int64_t d1 = d / g1;
  __int128 t = static_cast<__int128>(a) * d1 + c * b1;
  if (!FitsInt64(t)) return false;
  if (t == 0) {
    *num = 0;
    *den = 1;
    return true;
  }
  int64_t g2 = g1 == 1 ? 1
                       : static_cast<int64_t>(Gcd64(
                             Magnitude(static_cast<int64_t>(t)), g1));
  __int128 new_den = static_cast<__int128>(b1) * (d / g2);
  if (!FitsInt64(new_den)) return false;
  *num = static_cast<int64_t>(t) / g2;
  *den = static_cast<int64_t>(new_den);
  return true;
}

// (a/b) * (c/d), cancelling a with d and c with b before multiplying.
bool MulSmall(int64_t a, int64_t b, int64_t c, int64_t d, int64_t* num,
              int64_t* den) {
  if (a == 0 || c == 0) {
    *num = 0;
    *den = 1;
    return true;
  }
  // Both gcds divide a positive int64 denominator, so they fit int64.
  int64_t g1 = static_cast<int64_t>(Gcd64(Magnitude(a), d));
  int64_t g2 = static_cast<int64_t>(Gcd64(Magnitude(c), b));
  __int128 n = static_cast<__int128>(a / g1) * (c / g2);
  __int128 m = static_cast<__int128>(b / g2) * (d / g1);
  if (!FitsInt64(n) || !FitsInt64(m)) return false;
  *num = static_cast<int64_t>(n);
  *den = static_cast<int64_t>(m);
  return true;
}

}  // namespace

Rational::Rational(BigInt num, BigInt den)
    : num_(std::move(num)), den_(std::move(den)) {
  assert(!den_.IsZero() && "Rational with zero denominator");
  if (den_.IsZero()) den_ = BigInt(1);  // Degrade gracefully in release.
  Normalize();
}

Rational Rational::Reduced(int64_t num, int64_t den) {
  Rational out;
  out.num_.small_ = num;
  out.den_.small_ = den;
  return out;
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
  int64_t n, d;
  if (BothSmall(o) && AddSmall(num_.small_, den_.small_, o.num_.small_,
                               o.den_.small_, &n, &d)) {
    return Reduced(n, d);
  }
  return Rational(num_ * o.den_ + o.num_ * den_, den_ * o.den_);
}

Rational Rational::operator-(const Rational& o) const {
  int64_t n, d;
  if (BothSmall(o) &&
      AddSmall(num_.small_, den_.small_, -static_cast<__int128>(o.num_.small_),
               o.den_.small_, &n, &d)) {
    return Reduced(n, d);
  }
  return Rational(num_ * o.den_ - o.num_ * den_, den_ * o.den_);
}

Rational Rational::operator*(const Rational& o) const {
  int64_t n, d;
  if (BothSmall(o) && MulSmall(num_.small_, den_.small_, o.num_.small_,
                               o.den_.small_, &n, &d)) {
    return Reduced(n, d);
  }
  return Rational(num_ * o.num_, den_ * o.den_);
}

Rational Rational::operator/(const Rational& o) const {
  assert(!o.IsZero() && "Rational division by zero");
  if (o.IsZero()) return Rational();
  // Multiply by the inverse d/c with the sign moved to the numerator;
  // -INT64_MIN has no int64 denominator, so that case takes the BigInt path.
  int64_t n, d;
  if (BothSmall(o) && o.num_.small_ != INT64_MIN) {
    int64_t c = o.num_.small_;
    int64_t inv_num = c < 0 ? -o.den_.small_ : o.den_.small_;
    int64_t inv_den = c < 0 ? -c : c;
    if (MulSmall(num_.small_, den_.small_, inv_num, inv_den, &n, &d)) {
      return Reduced(n, d);
    }
  }
  return Rational(num_ * o.den_, den_ * o.num_);
}

int Rational::Compare(const Rational& o) const {
  // Denominators are positive, so cross-multiplication preserves order.
  if (BothSmall(o)) {
    __int128 l = static_cast<__int128>(num_.small_) * o.den_.small_;
    __int128 r = static_cast<__int128>(o.num_.small_) * den_.small_;
    return l < r ? -1 : (l > r ? 1 : 0);
  }
  return (num_ * o.den_).Compare(o.num_ * den_);
}

Rational Rational::Inverse() const {
  assert(!IsZero() && "inverse of zero");
  if (IsZero()) return Rational();
  if (BothSmall(*this) && num_.small_ != INT64_MIN) {
    return num_.small_ > 0 ? Reduced(den_.small_, num_.small_)
                           : Reduced(-den_.small_, -num_.small_);
  }
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

}  // namespace lyric
