// Tests for the schema text format (relational/schema_text.h).
#include <gtest/gtest.h>

#include "relational/schema_text.h"
#include "workload/generator.h"

namespace aspect {
namespace {

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
