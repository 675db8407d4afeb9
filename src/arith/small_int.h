// Checked int64 helpers shared by the inline fast paths of BigInt and
// Rational. Internal to src/arith.

#ifndef LYRIC_ARITH_SMALL_INT_H_
#define LYRIC_ARITH_SMALL_INT_H_

#include <cstdint>
#include <utility>

namespace lyric::arith_internal {

// True when `v` is representable as int64.
inline bool FitsInt64(__int128 v) {
  return v >= static_cast<__int128>(INT64_MIN) &&
         v <= static_cast<__int128>(INT64_MAX);
}

// |v| as uint64 (exact for INT64_MIN too).
inline uint64_t Magnitude(int64_t v) {
  return v < 0 ? ~static_cast<uint64_t>(v) + 1 : static_cast<uint64_t>(v);
}

// Binary (Stein) gcd; Gcd64(0, b) == b.
inline uint64_t Gcd64(uint64_t a, uint64_t b) {
  if (a == 0) return b;
  if (b == 0) return a;
  int shift = __builtin_ctzll(a | b);
  a >>= __builtin_ctzll(a);
  do {
    b >>= __builtin_ctzll(b);
    if (a > b) std::swap(a, b);
    b -= a;
  } while (b != 0);
  return a << shift;
}

}  // namespace lyric::arith_internal

#endif  // LYRIC_ARITH_SMALL_INT_H_
