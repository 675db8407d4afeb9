// String helpers: ParseUint64 accepts exactly the decimal digits of a
// uint64 and nothing else.

#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <string>

namespace lyric {
namespace {

TEST(ParseUint64Test, AcceptsDecimalDigits) {
  EXPECT_EQ(ParseUint64("0"), 0u);
  EXPECT_EQ(ParseUint64("7464"), 7464u);
  EXPECT_EQ(ParseUint64("007"), 7u);
  EXPECT_EQ(ParseUint64("18446744073709551615"),
            std::numeric_limits<uint64_t>::max());
}

TEST(ParseUint64Test, RejectsEverythingElse) {
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "abc", "0x10",
                          "1.5", "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(ParseUint64(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(ParseUint64Test, EnvUint64ReadsTheVariable) {
  ::setenv("LYRIC_STRING_UTIL_TEST", "42", 1);
  EXPECT_EQ(EnvUint64("LYRIC_STRING_UTIL_TEST"), 42u);
  // A negative value reads as unset, not as 2^64 - 1.
  ::setenv("LYRIC_STRING_UTIL_TEST", "-1", 1);
  EXPECT_FALSE(EnvUint64("LYRIC_STRING_UTIL_TEST").has_value());
  ::unsetenv("LYRIC_STRING_UTIL_TEST");
  EXPECT_FALSE(EnvUint64("LYRIC_STRING_UTIL_TEST").has_value());
}

}  // namespace
}  // namespace lyric
