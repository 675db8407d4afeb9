// Reference exact rationals over reference::BigInt: the engine's earlier
// Rational, kept verbatim (apart from its namespace) as a test-only oracle
// for src/arith's int64 fast paths. Every operation goes through BigInt and
// a gcd.
//
// Invariant: the denominator is strictly positive and gcd(num, den) == 1;
// zero is canonically 0/1. Every arithmetic operation re-normalizes, so two
// Rationals are equal iff their representations are identical — which makes
// syntactic duplicate detection on constraints (a canonical-form step the
// paper calls for) a plain structural comparison.

#ifndef LYRIC_TESTS_REFERENCE_RATIONAL_H_
#define LYRIC_TESTS_REFERENCE_RATIONAL_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "reference/bigint.h"
#include "util/result.h"

namespace lyric::reference {

/// Exact rational number.
class Rational {
 public:
  /// Constructs zero.
  Rational() : num_(0), den_(1) {}
  /// Constructs an integer value.
  Rational(int64_t v) : num_(v), den_(1) {}  // NOLINT(runtime/explicit)
  /// Constructs num/den; den must be non-zero (asserts in debug).
  Rational(BigInt num, BigInt den);
  Rational(int64_t num, int64_t den) : Rational(BigInt(num), BigInt(den)) {}

  /// Parses "3", "-7/2", or a decimal like "1.25" / "-0.5".
  static Result<Rational> FromString(const std::string& s);
  /// Converts a double that is exactly representable in binary (scaled by
  /// powers of two); intended for literals in tests and examples.
  static Rational FromDouble(double v);

  const BigInt& num() const { return num_; }
  const BigInt& den() const { return den_; }

  bool IsZero() const { return num_.IsZero(); }
  bool IsNegative() const { return num_.IsNegative(); }
  bool IsInteger() const { return den_ == BigInt(1); }
  int Sign() const { return num_.Sign(); }

  Rational operator-() const;
  Rational operator+(const Rational& o) const;
  Rational operator-(const Rational& o) const;
  Rational operator*(const Rational& o) const;
  /// Division; `o` must be non-zero (asserts in debug).
  Rational operator/(const Rational& o) const;

  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  bool operator==(const Rational& o) const {
    return num_ == o.num_ && den_ == o.den_;
  }
  bool operator!=(const Rational& o) const { return !(*this == o); }
  bool operator<(const Rational& o) const { return Compare(o) < 0; }
  bool operator<=(const Rational& o) const { return Compare(o) <= 0; }
  bool operator>(const Rational& o) const { return Compare(o) > 0; }
  bool operator>=(const Rational& o) const { return Compare(o) >= 0; }

  /// Three-way comparison.
  int Compare(const Rational& o) const;

  /// Multiplicative inverse; must be non-zero (asserts in debug).
  Rational Inverse() const;
  Rational Abs() const;

  /// "3", "-7/2".
  std::string ToString() const;
  double ToDouble() const;

  /// Hash suitable for unordered containers.
  size_t Hash() const;

 private:
  void Normalize();

  BigInt num_;
  BigInt den_;
};

inline std::ostream& operator<<(std::ostream& os, const Rational& v) {
  return os << v.ToString();
}

}  // namespace lyric::reference

#endif  // LYRIC_TESTS_REFERENCE_RATIONAL_H_
