// Event parity of the online recognizer against a golden file recorded from
// the batch recognizer (see recognition_parity.h for the streams). To
// re-record after an intentional change of the recognizer's output:
//   AIMS_REGEN_GOLDEN=1 ./recognizer_parity_test

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "recognition_parity.h"

namespace aims::parity {
namespace {

TEST(RecognizerParityTest, EventsMatchBatchRecognizerGolden) {
  const std::string golden_path =
      std::string(AIMS_TEST_DATA_DIR) + "/recognizer_events_golden.txt";
  std::vector<std::string> actual;
  for (size_t i = 0; i < kNumStreams; ++i) {
    for (std::string& line : RecognizeEvents(MakeParityStream(i))) {
      actual.push_back(std::move(line));
    }
  }
  if (std::getenv("AIMS_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::trunc);
    for (const std::string& line : actual) out << line << "\n";
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  const std::vector<std::string> expected = ReadGoldenLines(golden_path);
  ASSERT_FALSE(expected.empty()) << "missing golden file " << golden_path;
  EXPECT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < std::min(actual.size(), expected.size()); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "event " << i;
  }
}

}  // namespace
}  // namespace aims::parity
