// String helpers: ParseUint64 accepts exactly the decimal digits of a
// uint64 and nothing else; SplitNumericSuffix splits "path[:N]" specs.

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

TEST(SplitNumericSuffixTest, SplitsPathAndDigitSuffix) {
  // The LYRIC_QUERY_LOG / LYRIC_METRICS_OUT "path[:N]" form.
  std::string path;
  EXPECT_EQ(SplitNumericSuffix("/tmp/q.jsonl:4096", &path), 4096u);
  EXPECT_EQ(path, "/tmp/q.jsonl");
  EXPECT_EQ(SplitNumericSuffix("a:b:0", &path), 0u);
  EXPECT_EQ(path, "a:b");
  // Only the last ':' counts, and only an all-digit suffix splits.
  for (const char* whole : {"/tmp/q.jsonl", "q:", "q:12x", "q:-1", "c:\\q",
                            "host:port", ""}) {
    EXPECT_FALSE(SplitNumericSuffix(whole, &path).has_value()) << whole;
    EXPECT_EQ(path, whole);
  }
  // A digit suffix past 2^64 - 1 still splits off, but reads as unset.
  EXPECT_FALSE(
      SplitNumericSuffix("q.prom:18446744073709551616", &path).has_value());
  EXPECT_EQ(path, "q.prom");
}

}  // namespace
}  // namespace lyric
