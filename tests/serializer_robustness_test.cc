// Serializer robustness: truncated and corrupted payloads are rejected
// with a clean Status — no UB, no crash, and no partial mutation of the
// target Database (LoadDatabase parses into a scratch database and only
// moves it into the target once the whole payload applied).
//
// The checked-in corpus under tests/fuzz/corpus_serializer/ (also the
// serializer fuzz target's seed corpus) holds the corruption shapes
// (truncation, binary garbage, unterminated strings, dangling
// references, duplicate oids, zero denominators, bracket damage); the
// sweeps below generate hundreds more mechanically from a fresh dump.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "office/office_db.h"
#include "storage/serializer.h"

#ifndef LYRIC_TEST_CORPUS_DIR
#define LYRIC_TEST_CORPUS_DIR "tests/fuzz/corpus_serializer"
#endif

namespace lyric {
namespace {

class SerializerRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(office::BuildOfficeDatabase(&db_).ok());
    auto dump = Serializer::DumpDatabase(db_);
    ASSERT_TRUE(dump.ok()) << dump.status();
    dump_ = *dump;
  }

  // Loads `text` into a fresh database; on failure the target must be
  // exactly as empty as it started (all-or-nothing).
  void ExpectCleanRejectionOrFullLoad(const std::string& text,
                                      const std::string& label) {
    Database target;
    Status s = Serializer::LoadDatabase(text, &target);
    if (s.ok()) {
      EXPECT_TRUE(target.CheckIntegrity().ok()) << label;
      return;
    }
    EXPECT_FALSE(s.message().empty()) << label;
    EXPECT_EQ(target.ObjectCount(), 0u) << label << " mutated the target";
    EXPECT_TRUE(target.schema().ClassNames().empty())
        << label << " mutated the schema";
  }

  Database db_;
  std::string dump_;
};

TEST_F(SerializerRobustnessTest, CheckedInCorpusRejectsCleanly) {
  size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(LYRIC_TEST_CORPUS_DIR)) {
    if (!entry.is_regular_file()) continue;
    ++files;
    std::ifstream in(entry.path(), std::ios::binary);
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream buf;
    buf << in.rdbuf();

    Database target;
    Status s = Serializer::LoadDatabase(buf.str(), &target);
    EXPECT_FALSE(s.ok()) << entry.path() << " should have been rejected";
    EXPECT_EQ(target.ObjectCount(), 0u) << entry.path();
    EXPECT_TRUE(target.schema().ClassNames().empty()) << entry.path();
  }
  EXPECT_GE(files, 9u) << "corpus directory " << LYRIC_TEST_CORPUS_DIR
                       << " is missing its seed files";
}

TEST_F(SerializerRobustnessTest, EveryTruncationRejectsOrRoundTrips) {
  // Sweep prefixes: a fine-grained pass over the first bytes (where the
  // header and schema live) and a coarser stride through the rest, plus
  // every cut point near the end.
  std::vector<size_t> cuts;
  for (size_t i = 0; i < std::min<size_t>(dump_.size(), 64); ++i) {
    cuts.push_back(i);
  }
  for (size_t i = 64; i + 50 < dump_.size(); i += 7) cuts.push_back(i);
  for (size_t i = dump_.size() > 50 ? dump_.size() - 50 : 0;
       i < dump_.size(); ++i) {
    cuts.push_back(i);
  }
  for (size_t cut : cuts) {
    ExpectCleanRejectionOrFullLoad(dump_.substr(0, cut),
                                   "truncation at " + std::to_string(cut));
  }
}

TEST_F(SerializerRobustnessTest, SingleByteCorruptionNeverCrashesOrLeaks) {
  // Flip one byte at a stride of positions; any individual flip may
  // happen to stay parseable (e.g. inside a name), but none may crash,
  // and every rejection must leave the target untouched.
  for (size_t pos = 0; pos < dump_.size(); pos += 11) {
    for (char corrupt : {'\0', '\xff', '(', '\'', '9'}) {
      std::string mutated = dump_;
      if (mutated[pos] == corrupt) continue;
      mutated[pos] = corrupt;
      ExpectCleanRejectionOrFullLoad(
          mutated, "flip at " + std::to_string(pos) + " to " +
                       std::to_string(static_cast<int>(corrupt)));
    }
  }
}

TEST_F(SerializerRobustnessTest, LoadRequiresEmptyTarget) {
  Database target;
  ASSERT_TRUE(office::BuildOfficeDatabase(&target).ok());
  Status s = Serializer::LoadDatabase(dump_, &target);
  EXPECT_TRUE(s.IsInvalidArgument()) << s;
}

TEST_F(SerializerRobustnessTest, FailedLoadLeavesTargetReusable) {
  // A target that survived a rejected load must accept a good payload
  // afterwards — the scratch-database path may not leave partial interned
  // state behind.
  Database target;
  std::string corrupt = dump_.substr(0, dump_.size() / 2);
  EXPECT_FALSE(Serializer::LoadDatabase(corrupt, &target).ok());
  ASSERT_TRUE(Serializer::LoadDatabase(dump_, &target).ok());
  EXPECT_EQ(target.ObjectCount(), db_.ObjectCount());
  EXPECT_TRUE(target.CheckIntegrity().ok());
}

TEST_F(SerializerRobustnessTest, LoadFromMissingFileFailsCleanly) {
  Database target;
  Status s = Serializer::LoadFromFile("/nonexistent/lyric.db", &target);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(target.ObjectCount(), 0u);
}

}  // namespace
}  // namespace lyric
