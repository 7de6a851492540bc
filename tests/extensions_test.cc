// Tests for the extension modules: the sampling scaler and the schema
// text format.
#include <gtest/gtest.h>

#include "relational/integrity.h"
#include "relational/schema_text.h"
#include "scaler/sampling_scaler.h"
#include "workload/generator.h"

namespace aspect {
namespace {

class SamplingScalerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto gen = GenerateDataset(DoubanMusicLike(0.4), 53);
    ASSERT_TRUE(gen.ok());
    set_ = std::make_unique<SnapshotSet>(std::move(gen).ValueOrDie());
    source_ = set_->Materialize(5).ValueOrAbort();
  }
  std::unique_ptr<SnapshotSet> set_;
  std::unique_ptr<Database> source_;
};

TEST_F(SamplingScalerTest, ScaleDownHitsExactSizesWithValidFks) {
  SamplingScaler scaler;
  const auto targets = set_->SnapshotSizes(2);
  auto scaled = scaler.Scale(*source_, targets, 3).ValueOrAbort();
  for (int t = 0; t < scaled->num_tables(); ++t) {
    EXPECT_EQ(scaled->table(t).NumTuples(), targets[static_cast<size_t>(t)])
        << scaled->table(t).name();
  }
  EXPECT_TRUE(CheckIntegrity(*scaled).ok());
}

TEST_F(SamplingScalerTest, SampledTuplesComeFromSource) {
  // Attribute columns of sampled tuples must exist in the source
  // domain (they are copied, not invented).
  SamplingScaler scaler;
  auto scaled =
      scaler.Scale(*source_, set_->SnapshotSizes(2), 5).ValueOrAbort();
  const Table* src_users = source_->FindTable("User");
  const Table* dst_users = scaled->FindTable("User");
  std::set<std::string> countries;
  src_users->ForEachLive([&](TupleId t) {
    countries.insert(src_users->column(0).GetString(t));
  });
  dst_users->ForEachLive([&](TupleId t) {
    EXPECT_TRUE(countries.count(dst_users->column(0).GetString(t)))
        << dst_users->column(0).GetString(t);
  });
}

TEST_F(SamplingScalerTest, ScaleUpToppedUpByCloning) {
  SamplingScaler scaler;
  const auto targets = set_->SnapshotSizes(6);
  auto scaled = scaler.Scale(*source_, targets, 7).ValueOrAbort();
  for (int t = 0; t < scaled->num_tables(); ++t) {
    EXPECT_EQ(scaled->table(t).NumTuples(), targets[static_cast<size_t>(t)]);
  }
  EXPECT_TRUE(CheckIntegrity(*scaled).ok());
}

TEST(SchemaTextTest, RoundTrip) {
  const Schema original = DoubanMusicLike(1.0).ToSchema();
  const std::string text = FormatSchemaText(original);
  const Schema parsed = ParseSchemaText(text).ValueOrAbort();
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.user_table, original.user_table);
  ASSERT_EQ(parsed.tables.size(), original.tables.size());
  for (size_t t = 0; t < parsed.tables.size(); ++t) {
    EXPECT_EQ(parsed.tables[t].name, original.tables[t].name);
    ASSERT_EQ(parsed.tables[t].columns.size(),
              original.tables[t].columns.size());
    for (size_t c = 0; c < parsed.tables[t].columns.size(); ++c) {
      EXPECT_EQ(parsed.tables[t].columns[c].name,
                original.tables[t].columns[c].name);
      EXPECT_EQ(parsed.tables[t].columns[c].type,
                original.tables[t].columns[c].type);
      EXPECT_EQ(parsed.tables[t].columns[c].ref_table,
                original.tables[t].columns[c].ref_table);
    }
  }
  ASSERT_EQ(parsed.responses.size(), original.responses.size());
  for (size_t r = 0; r < parsed.responses.size(); ++r) {
    EXPECT_EQ(parsed.responses[r].response_table,
              original.responses[r].response_table);
    EXPECT_EQ(parsed.responses[r].post_col, original.responses[r].post_col);
    EXPECT_EQ(parsed.responses[r].responder_col,
              original.responses[r].responder_col);
    EXPECT_EQ(parsed.responses[r].author_col,
              original.responses[r].author_col);
  }
}

TEST(SchemaTextTest, CommentsAndWhitespaceIgnored) {
  const auto schema = ParseSchemaText(R"(
# a library
dataset demo
table A
  col x int64   # payload
table B
  col a fk A
)")
                          .ValueOrAbort();
  EXPECT_EQ(schema.name, "demo");
  ASSERT_EQ(schema.tables.size(), 2u);
  EXPECT_EQ(schema.tables[1].columns[0].ref_table, "A");
}

TEST(SchemaTextTest, ErrorsCarryLineNumbers) {
  const auto r1 = ParseSchemaText("table A\ncol x float32\n");
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("line 2"), std::string::npos);
  EXPECT_FALSE(ParseSchemaText("col x int64\n").ok());  // col before table
  EXPECT_FALSE(ParseSchemaText("bogus\n").ok());
  EXPECT_FALSE(
      ParseSchemaText("table A\ncol x fk Missing\n").ok());  // validation
  EXPECT_FALSE(
      ParseSchemaText("table A\nresponse A x y A z\n").ok());
}

TEST(SchemaTextTest, LoadFileMissing) {
  EXPECT_FALSE(LoadSchemaFile("/no/such/schema.txt").ok());
}

}  // namespace
}  // namespace aspect
