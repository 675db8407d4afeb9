// The main of every gtest binary here. Like each tool's main it applies
// the LYRIC_* environment before anything else runs, so the ctest gates
// that rerun a binary under a variable (LYRIC_FAULT, LYRIC_MAX_CONCURRENT,
// LYRIC_STORAGE_FULL_AT, ...) configure the process they test.

#include <gtest/gtest.h>

#include "config/config.h"

int main(int argc, char** argv) {
  lyric::Config::FromEnv().Apply();
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
