#include "incomplete/serialization.h"

#include <gtest/gtest.h>

#include "tests/test_util.h"

namespace cpclean {
namespace {

using testing_util::MakeRandomDataset;
using testing_util::RandomDatasetSpec;

bool DatasetsEqual(const IncompleteDataset& a, const IncompleteDataset& b) {
  if (a.num_examples() != b.num_examples() || a.num_labels() != b.num_labels() ||
      a.dim() != b.dim()) {
    return false;
  }
  for (int i = 0; i < a.num_examples(); ++i) {
    if (a.label(i) != b.label(i)) return false;
    if (a.num_candidates(i) != b.num_candidates(i)) return false;
    for (int j = 0; j < a.num_candidates(i); ++j) {
      if (a.candidate(i, j) != b.candidate(i, j)) return false;
    }
  }
  return true;
}

/// Serialize → parse, asserting the parse succeeds.
DeserializedDataset RoundTrip(
    const IncompleteDataset& dataset,
    const std::vector<SerializedSection>& sections = {}) {
  Result<DeserializedDataset> parsed = DeserializeIncompleteDataset(
      SerializeIncompleteDataset(dataset, sections));
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

TEST(SerializationTest, ExactRoundTrip) {
  RandomDatasetSpec spec;
  spec.num_examples = 14;
  spec.max_candidates = 4;
  spec.num_labels = 3;
  spec.dim = 5;
  spec.seed = 77;
  const IncompleteDataset original = MakeRandomDataset(spec);
  const DeserializedDataset reloaded = RoundTrip(original);
  EXPECT_TRUE(DatasetsEqual(original, reloaded.dataset));
  EXPECT_TRUE(reloaded.sections.empty());
}

TEST(SerializationTest, HexFloatsRoundTripBitExactly) {
  IncompleteDataset dataset(2);
  // Values chosen to be unrepresentable in short decimal.
  CP_CHECK(dataset.AddCleanExample({1.0 / 3.0, -2.0e-17}, 0).ok());
  CP_CHECK(dataset
               .AddExample({{{0.1, 0.2}, {3.3333333333333331, 1e300}}, 1})
               .ok());
  EXPECT_TRUE(BitIdentical(dataset, RoundTrip(dataset).dataset));
}

TEST(SerializationTest, CommentsAndBlankLinesIgnored) {
  IncompleteDataset dataset(2);
  CP_CHECK(dataset.AddCleanExample({1.5}, 1).ok());
  std::string text = SerializeIncompleteDataset(dataset, {{"s", {"x"}}});
  text = "# a comment\n\n" + text + "\n# trailing\n";
  const Result<DeserializedDataset> parsed =
      DeserializeIncompleteDataset(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().sections.size(), 1u);
  EXPECT_EQ(parsed.value().sections[0].lines,
            std::vector<std::string>{"x"});
}

TEST(SerializationTest, RejectsMalformedInput) {
  EXPECT_FALSE(DeserializeIncompleteDataset("").ok());
  EXPECT_FALSE(DeserializeIncompleteDataset("wrong-magic 2 1 0\n").ok());
  // Missing header fields; a non-numeric version.
  EXPECT_FALSE(
      DeserializeIncompleteDataset("cpclean-incomplete-v3 2 1\n").ok());
  EXPECT_FALSE(
      DeserializeIncompleteDataset("cpclean-incomplete-v3 2 1 x\n").ok());
  // Truncated candidate block.
  EXPECT_FALSE(DeserializeIncompleteDataset(
                   "cpclean-incomplete-v3 2 1 0\nexample 0 2\n0x1p+0\n")
                   .ok());
  // Wrong dimensionality.
  EXPECT_FALSE(DeserializeIncompleteDataset(
                   "cpclean-incomplete-v3 2 2 0\nexample 0 1\n0x1p+0\n")
                   .ok());
  // Label out of range is caught by AddExample.
  EXPECT_FALSE(DeserializeIncompleteDataset(
                   "cpclean-incomplete-v3 2 1 0\nexample 5 1\n0x1p+0\n")
                   .ok());
  // The retired pre-v3 formats (no version in the header).
  EXPECT_FALSE(DeserializeIncompleteDataset(
                   "cpclean-incomplete-v1 2 1\nexample 0 1\n0x1p+0\n")
                   .ok());
  EXPECT_FALSE(DeserializeIncompleteDataset(
                   "cpclean-incomplete-v2 2 1\nexample 0 1\n0x1p+0\n"
                   "section s\nx\nend\n")
                   .ok());
}

TEST(SerializationTest, RoundTripsDatasetSectionsAndVersion) {
  RandomDatasetSpec spec;
  spec.num_examples = 9;
  spec.max_candidates = 3;
  spec.num_labels = 2;
  spec.dim = 4;
  spec.seed = 123;
  IncompleteDataset original = MakeRandomDataset(spec);
  original.FixExample(2, 0);
  const std::vector<SerializedSection> sections = {
      {"spec", {"{\"session\":\"a\",\"k\":3}"}},
      {"cleaning", {"cleaned 3 5 1 7"}},
  };
  const DeserializedDataset parsed = RoundTrip(original, sections);
  EXPECT_TRUE(DatasetsEqual(original, parsed.dataset));
  EXPECT_TRUE(BitIdentical(original, parsed.dataset));
  EXPECT_EQ(parsed.dataset.version(), original.version());
  ASSERT_EQ(parsed.sections.size(), 2u);
  EXPECT_EQ(parsed.sections[0].name, "spec");
  ASSERT_EQ(parsed.sections[0].lines.size(), 1u);
  EXPECT_EQ(parsed.sections[0].lines[0], sections[0].lines[0]);
  EXPECT_EQ(parsed.sections[1].name, "cleaning");
  EXPECT_EQ(parsed.sections[1].lines, sections[1].lines);
}

TEST(SerializationTest, RejectsMalformedSections) {
  IncompleteDataset dataset(2);
  CP_CHECK(dataset.AddCleanExample({1.0}, 0).ok());
  const std::string base = SerializeIncompleteDataset(dataset, {});
  // Unterminated section.
  EXPECT_FALSE(
      DeserializeIncompleteDataset(base + "section hanging\npayload\n").ok());
  // An example block after a section violates the trailer layout.
  EXPECT_FALSE(DeserializeIncompleteDataset(
                   base + "section s\nx\nend\nexample 0 1\n0x1p+0\n")
                   .ok());
}

TEST(SerializationTest, BitIdenticalDetectsValueAndShapeDrift) {
  IncompleteDataset a(2);
  CP_CHECK(a.AddExample({{{1.0}, {2.0}}, 1}).ok());
  IncompleteDataset b = a;
  EXPECT_TRUE(BitIdentical(a, b));
  b.FixExample(0, 0);
  EXPECT_FALSE(BitIdentical(a, b));  // candidate-count drift
  IncompleteDataset c(2);
  CP_CHECK(c.AddExample({{{1.0}, {2.0000000000000004}}, 1}).ok());
  EXPECT_FALSE(BitIdentical(a, c));  // one-ulp value drift
}

}  // namespace
}  // namespace cpclean
