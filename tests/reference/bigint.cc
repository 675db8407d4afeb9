#include "reference/bigint.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lyric::reference {

namespace {
constexpr uint64_t kBase = 1ull << 32;

// Checked int64 arithmetic via __int128.
inline bool FitsInt64(__int128 v) {
  return v >= static_cast<__int128>(INT64_MIN) &&
         v <= static_cast<__int128>(INT64_MAX);
}
}  // namespace

BigInt BigInt::FromLimbs(bool negative, std::vector<uint32_t> limbs) {
  Trim(&limbs);
  BigInt out;
  if (limbs.empty()) return out;  // Zero.
  // Fits in int64?
  if (limbs.size() <= 2) {
    uint64_t mag = limbs[0];
    if (limbs.size() == 2) mag |= static_cast<uint64_t>(limbs[1]) << 32;
    if (!negative && mag <= static_cast<uint64_t>(INT64_MAX)) {
      out.small_ = static_cast<int64_t>(mag);
      return out;
    }
    if (negative && mag <= (1ull << 63)) {
      out.small_ = static_cast<int64_t>(~mag + 1);
      return out;
    }
  }
  out.is_small_ = false;
  out.small_ = 0;
  out.negative_ = negative;
  out.limbs_ = std::move(limbs);
  return out;
}

std::vector<uint32_t> BigInt::ToLimbs() const {
  if (!is_small_) return limbs_;
  std::vector<uint32_t> out;
  uint64_t mag = small_ < 0 ? ~static_cast<uint64_t>(small_) + 1
                            : static_cast<uint64_t>(small_);
  while (mag != 0) {
    out.push_back(static_cast<uint32_t>(mag & 0xffffffffu));
    mag >>= 32;
  }
  return out;
}

Result<BigInt> BigInt::FromString(const std::string& s) {
  size_t i = 0;
  bool neg = false;
  if (i < s.size() && (s[i] == '-' || s[i] == '+')) {
    neg = s[i] == '-';
    ++i;
  }
  if (i >= s.size()) {
    return Status::ArithmeticError("empty integer literal: '" + s + "'");
  }
  BigInt out;
  const BigInt ten(10);
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') {
      return Status::ArithmeticError("bad digit in integer literal: '" + s +
                                     "'");
    }
    out = out * ten + BigInt(s[i] - '0');
  }
  if (neg) out = -out;
  return out;
}

void BigInt::Trim(std::vector<uint32_t>* limbs) {
  while (!limbs->empty() && limbs->back() == 0) limbs->pop_back();
}

int BigInt::CompareMagnitude(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<uint32_t> BigInt::AddMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(std::max(a.size(), b.size()) + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    uint64_t sum = carry;
    if (i < a.size()) sum += a[i];
    if (i < b.size()) sum += b[i];
    out.push_back(static_cast<uint32_t>(sum & 0xffffffffu));
    carry = sum >> 32;
  }
  if (carry) out.push_back(static_cast<uint32_t>(carry));
  return out;
}

std::vector<uint32_t> BigInt::SubMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  assert(CompareMagnitude(a, b) >= 0);
  std::vector<uint32_t> out;
  out.reserve(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow;
    if (i < b.size()) diff -= b[i];
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<uint32_t>(diff));
  }
  Trim(&out);
  return out;
}

std::vector<uint32_t> BigInt::MulMagnitude(const std::vector<uint32_t>& a,
                                           const std::vector<uint32_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<uint32_t> out(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t cur = static_cast<uint64_t>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
    }
    size_t k = i + b.size();
    while (carry) {
      uint64_t cur = out[k] + carry;
      out[k] = static_cast<uint32_t>(cur & 0xffffffffu);
      carry = cur >> 32;
      ++k;
    }
  }
  Trim(&out);
  return out;
}

void BigInt::DivModMagnitude(const std::vector<uint32_t>& a,
                             const std::vector<uint32_t>& b,
                             std::vector<uint32_t>* q,
                             std::vector<uint32_t>* r) {
  q->assign(a.size(), 0);
  r->clear();
  if (b.empty()) {
    assert(false && "BigInt division by zero");
    q->clear();
    return;
  }
  // Fast path: single-limb divisor.
  if (b.size() == 1) {
    uint64_t d = b[0];
    uint64_t rem = 0;
    for (size_t i = a.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a[i];
      (*q)[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    Trim(q);
    if (rem) {
      r->push_back(static_cast<uint32_t>(rem & 0xffffffffu));
      if (rem >> 32) r->push_back(static_cast<uint32_t>(rem >> 32));
    }
    return;
  }
  // General case: bit-by-bit long division. O(bits(a) * limbs(b)); the
  // coefficients seen in constraint manipulation are small enough that this
  // simple, obviously-correct routine is preferable to Knuth's algorithm D.
  std::vector<uint32_t> rem;
  for (size_t i = a.size(); i-- > 0;) {
    for (int bit = 31; bit >= 0; --bit) {
      // rem = rem * 2 + next bit of a.
      uint32_t carry = (a[i] >> bit) & 1u;
      for (size_t k = 0; k < rem.size(); ++k) {
        uint32_t next_carry = rem[k] >> 31;
        rem[k] = (rem[k] << 1) | carry;
        carry = next_carry;
      }
      if (carry) rem.push_back(carry);
      if (CompareMagnitude(rem, b) >= 0) {
        rem = SubMagnitude(rem, b);
        (*q)[i] |= 1u << bit;
      }
    }
  }
  Trim(q);
  *r = std::move(rem);
}

BigInt BigInt::operator-() const {
  if (is_small_) {
    if (small_ != INT64_MIN) return BigInt(-small_);
    // -INT64_MIN overflows int64; promote.
    std::vector<uint32_t> limbs = ToLimbs();
    return FromLimbs(false, std::move(limbs));
  }
  // Negation can re-enter the small range (e.g. -(2^63)); rebuild.
  return FromLimbs(!negative_, limbs_);
}

BigInt BigInt::operator+(const BigInt& o) const {
  if (is_small_ && o.is_small_) {
    __int128 sum = static_cast<__int128>(small_) + o.small_;
    if (FitsInt64(sum)) return BigInt(static_cast<int64_t>(sum));
  }
  bool a_neg = IsNegative();
  bool b_neg = o.IsNegative();
  std::vector<uint32_t> a = ToLimbs();
  std::vector<uint32_t> b = o.ToLimbs();
  if (a_neg == b_neg) {
    return FromLimbs(a_neg, AddMagnitude(a, b));
  }
  int cmp = CompareMagnitude(a, b);
  if (cmp >= 0) return FromLimbs(a_neg, SubMagnitude(a, b));
  return FromLimbs(b_neg, SubMagnitude(b, a));
}

BigInt BigInt::operator-(const BigInt& o) const {
  if (is_small_ && o.is_small_) {
    __int128 diff = static_cast<__int128>(small_) - o.small_;
    if (FitsInt64(diff)) return BigInt(static_cast<int64_t>(diff));
  }
  return *this + (-o);
}

BigInt BigInt::operator*(const BigInt& o) const {
  if (is_small_ && o.is_small_) {
    __int128 prod = static_cast<__int128>(small_) * o.small_;
    if (FitsInt64(prod)) return BigInt(static_cast<int64_t>(prod));
  }
  return FromLimbs(IsNegative() != o.IsNegative(),
                   MulMagnitude(ToLimbs(), o.ToLimbs()));
}

BigInt BigInt::operator/(const BigInt& o) const {
  if (is_small_ && o.is_small_) {
    assert(o.small_ != 0 && "BigInt division by zero");
    if (o.small_ == 0) return BigInt();
    if (!(small_ == INT64_MIN && o.small_ == -1)) {
      return BigInt(small_ / o.small_);
    }
  }
  std::vector<uint32_t> q, r;
  DivModMagnitude(ToLimbs(), o.ToLimbs(), &q, &r);
  return FromLimbs(IsNegative() != o.IsNegative(), std::move(q));
}

BigInt BigInt::operator%(const BigInt& o) const {
  if (is_small_ && o.is_small_) {
    assert(o.small_ != 0 && "BigInt modulo by zero");
    if (o.small_ == 0) return BigInt();
    if (!(small_ == INT64_MIN && o.small_ == -1)) {
      return BigInt(small_ % o.small_);
    }
  }
  std::vector<uint32_t> q, r;
  DivModMagnitude(ToLimbs(), o.ToLimbs(), &q, &r);
  return FromLimbs(IsNegative(), std::move(r));
}

int BigInt::Compare(const BigInt& o) const {
  if (is_small_ && o.is_small_) {
    if (small_ != o.small_) return small_ < o.small_ ? -1 : 1;
    return 0;
  }
  bool a_neg = IsNegative();
  bool b_neg = o.IsNegative();
  if (a_neg != b_neg) return a_neg ? -1 : 1;
  int mag = CompareMagnitude(ToLimbs(), o.ToLimbs());
  return a_neg ? -mag : mag;
}

BigInt BigInt::Abs() const {
  if (IsNegative()) return -*this;
  return *this;
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  // Small fast path: classic binary-free Euclid on uint64.
  if (a.is_small_ && b.is_small_ && a.small_ != INT64_MIN &&
      b.small_ != INT64_MIN) {
    uint64_t x = static_cast<uint64_t>(a.small_ < 0 ? -a.small_ : a.small_);
    uint64_t y = static_cast<uint64_t>(b.small_ < 0 ? -b.small_ : b.small_);
    while (y != 0) {
      uint64_t r = x % y;
      x = y;
      y = r;
    }
    if (x <= static_cast<uint64_t>(INT64_MAX)) {
      return BigInt(static_cast<int64_t>(x));
    }
  }
  BigInt x = a.Abs();
  BigInt y = b.Abs();
  while (!y.IsZero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

std::string BigInt::ToString() const {
  if (is_small_) return std::to_string(small_);
  if (limbs_.empty()) return "0";
  // Repeated division by 10^9.
  std::vector<uint32_t> mag = limbs_;
  std::string digits;
  const uint64_t kChunk = 1000000000ull;
  while (!mag.empty()) {
    uint64_t rem = 0;
    for (size_t i = mag.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | mag[i];
      mag[i] = static_cast<uint32_t>(cur / kChunk);
      rem = cur % kChunk;
    }
    Trim(&mag);
    for (int d = 0; d < 9; ++d) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  std::string out;
  if (negative_) out.push_back('-');
  out.append(digits.rbegin(), digits.rend());
  return out;
}

double BigInt::ToDouble() const {
  if (is_small_) return static_cast<double>(small_);
  double out = 0;
  for (size_t i = limbs_.size(); i-- > 0;) {
    out = out * static_cast<double>(kBase) + static_cast<double>(limbs_[i]);
  }
  return negative_ ? -out : out;
}

Result<int64_t> BigInt::ToInt64() const {
  if (is_small_) return small_;
  // Big representation only holds values outside int64 by construction.
  return Status::ArithmeticError("BigInt does not fit in int64: " +
                                 ToString());
}

size_t BigInt::LimbCount() const {
  if (!is_small_) return limbs_.size();
  if (small_ == 0) return 0;
  uint64_t mag = small_ < 0 ? ~static_cast<uint64_t>(small_) + 1
                            : static_cast<uint64_t>(small_);
  return mag >> 32 ? 2 : 1;
}

size_t BigInt::Hash() const {
  // Hash must agree across representations; hash the limb image.
  size_t h = IsNegative() ? 0x9e3779b97f4a7c15ull : 0;
  for (uint32_t limb : ToLimbs()) {
    h ^= limb + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace lyric::reference
