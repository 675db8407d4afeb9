// Reference arbitrary-precision integers: the engine's earlier BigInt,
// kept verbatim (apart from its namespace) as a test-only oracle. The
// differential test in rational_test.cc replays random operation sequences
// through both this class and src/arith's BigInt and requires identical
// results; nothing outside tests/ links it.
//
// Representation: a small-integer fast path (plain int64, no allocation)
// promoting on overflow to sign-magnitude little-endian 32-bit limbs; every
// value carries both, 48 bytes.

#ifndef LYRIC_TESTS_REFERENCE_BIGINT_H_
#define LYRIC_TESTS_REFERENCE_BIGINT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "util/result.h"

namespace lyric::reference {

/// Arbitrary-precision signed integer.
class BigInt {
 public:
  /// Constructs zero.
  BigInt() = default;
  /// Constructs from a machine integer (never allocates).
  BigInt(int64_t v) : small_(v) {}  // NOLINT(runtime/explicit)

  /// Parses a decimal string with optional leading '-'.
  static Result<BigInt> FromString(const std::string& s);

  /// True if this is zero.
  bool IsZero() const { return is_small_ ? small_ == 0 : limbs_.empty(); }
  /// True if this is strictly negative.
  bool IsNegative() const { return is_small_ ? small_ < 0 : negative_; }
  /// -1, 0, or +1.
  int Sign() const {
    if (is_small_) return small_ < 0 ? -1 : (small_ > 0 ? 1 : 0);
    if (limbs_.empty()) return 0;
    return negative_ ? -1 : 1;
  }

  BigInt operator-() const;
  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  /// Truncated division (C semantics: rounds toward zero). `o` must be
  /// non-zero; division by zero aborts in debug and returns 0 in release.
  BigInt operator/(const BigInt& o) const;
  /// Remainder matching operator/ (same sign as the dividend).
  BigInt operator%(const BigInt& o) const;

  BigInt& operator+=(const BigInt& o) { return *this = *this + o; }
  BigInt& operator-=(const BigInt& o) { return *this = *this - o; }
  BigInt& operator*=(const BigInt& o) { return *this = *this * o; }

  bool operator==(const BigInt& o) const { return Compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return Compare(o) != 0; }
  bool operator<(const BigInt& o) const { return Compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return Compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return Compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return Compare(o) >= 0; }

  /// Three-way comparison: negative / zero / positive.
  int Compare(const BigInt& o) const;

  /// Absolute value.
  BigInt Abs() const;

  /// Greatest common divisor (always non-negative).
  static BigInt Gcd(const BigInt& a, const BigInt& b);

  /// Decimal rendering.
  std::string ToString() const;

  /// Best-effort conversion to double (may lose precision; may be inf).
  double ToDouble() const;

  /// Returns the value as int64 if it fits.
  Result<int64_t> ToInt64() const;

  /// Number of limbs (0 for zero); proxies magnitude size for cost models.
  size_t LimbCount() const;

  /// True when the value is held inline (diagnostic for tests/benches).
  bool IsSmallRep() const { return is_small_; }

  /// Hash suitable for unordered containers.
  size_t Hash() const;

 private:
  // Magnitude comparison: -1, 0, +1.
  static int CompareMagnitude(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b);
  static std::vector<uint32_t> AddMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  // Requires |a| >= |b|.
  static std::vector<uint32_t> SubMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  static std::vector<uint32_t> MulMagnitude(const std::vector<uint32_t>& a,
                                            const std::vector<uint32_t>& b);
  // Schoolbook bit-wise long division of magnitudes; sets q and r.
  static void DivModMagnitude(const std::vector<uint32_t>& a,
                              const std::vector<uint32_t>& b,
                              std::vector<uint32_t>* q,
                              std::vector<uint32_t>* r);
  static void Trim(std::vector<uint32_t>* limbs);

  // Builds a big-representation value from sign + magnitude.
  static BigInt FromLimbs(bool negative, std::vector<uint32_t> limbs);
  // The limb representation of this value (copies for small values).
  std::vector<uint32_t> ToLimbs() const;

  bool is_small_ = true;
  int64_t small_ = 0;
  bool negative_ = false;             // Big representation only.
  std::vector<uint32_t> limbs_;       // Little-endian, no trailing zeros.
};

inline std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.ToString();
}

}  // namespace lyric::reference

#endif  // LYRIC_TESTS_REFERENCE_BIGINT_H_
