// Saturating deadline arithmetic for millisecond counts that arrive from
// outside the process: wire requests, environment variables and flags.

#ifndef LYRIC_UTIL_DEADLINE_H_
#define LYRIC_UTIL_DEADLINE_H_

#include <chrono>
#include <cstdint>

namespace lyric {

/// `start + ms`, clamped to steady_clock::time_point::max(). The plain sum
/// converts `ms` to int64 nanoseconds: past 2^63 - 1 the count turns
/// negative (a deadline already in the past), and past ~9.2e12 ms the
/// nanosecond conversion overflows. Saturating means a larger deadline
/// never expires sooner than a smaller one.
inline std::chrono::steady_clock::time_point DeadlineAfterMs(
    std::chrono::steady_clock::time_point start, uint64_t ms) {
  using TimePoint = std::chrono::steady_clock::time_point;
  const auto headroom = std::chrono::duration_cast<std::chrono::milliseconds>(
      TimePoint::max() - start);
  if (ms >= static_cast<uint64_t>(headroom.count())) return TimePoint::max();
  return start + std::chrono::milliseconds(static_cast<int64_t>(ms));
}

}  // namespace lyric

#endif  // LYRIC_UTIL_DEADLINE_H_
