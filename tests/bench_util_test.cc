// Tests for the bench report writer's JSON string escaping: a hostile
// name (embedded quotes, backslashes, newlines, tabs, and raw control
// bytes) must round-trip through Escaped + a standard JSON unescape to
// the original bytes, and the escaped form must contain no raw control
// character (which JSON forbids inside strings). Also the fixed-width
// table printer's column separation.
#include <gtest/gtest.h>

#include <string>

#include "bench_util.h"

namespace aspect {
namespace bench {
namespace {

// Minimal JSON string unescape, the inverse a conforming reader
// applies: handles the two-character escapes Escaped emits plus the
// generic \u00XX form.
std::string Unescaped(const std::string& s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out.push_back(s[i]);
      continue;
    }
    ++i;
    switch (s[i]) {
      case '"':
        out.push_back('"');
        break;
      case '\\':
        out.push_back('\\');
        break;
      case 'n':
        out.push_back('\n');
        break;
      case 't':
        out.push_back('\t');
        break;
      case 'r':
        out.push_back('\r');
        break;
      case 'b':
        out.push_back('\b');
        break;
      case 'f':
        out.push_back('\f');
        break;
      case 'u': {
        const std::string hex = s.substr(i + 1, 4);
        out.push_back(static_cast<char>(std::stoi(hex, nullptr, 16)));
        i += 4;
        break;
      }
      default:
        ADD_FAILURE() << "unknown escape \\" << s[i];
    }
  }
  return out;
}

TEST(BenchReportEscapeTest, HostileNameRoundTrips) {
  std::string hostile = "say \"hi\"\\ a\nb\tc\rd\be\ff";
  hostile.push_back('\x01');   // raw control byte -> 
  hostile.push_back('\x1f');   // boundary: last forbidden code point
  hostile.push_back('\x7f');   // DEL is legal raw in a JSON string
  const std::string escaped = BenchReport::Escaped(hostile);
  EXPECT_EQ(Unescaped(escaped), hostile);
}

TEST(BenchReportEscapeTest, EscapedFormHasNoRawControlCharacters) {
  std::string hostile;
  for (int c = 0; c < 0x20; ++c) {
    hostile.push_back(static_cast<char>(c == 0 ? 1 : c));
  }
  hostile += "\"\\plain";
  const std::string escaped = BenchReport::Escaped(hostile);
  for (const char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control byte survived escaping";
  }
  // Quotes and backslashes only ever appear as escape sequences.
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '"') {
      ASSERT_GT(i, 0u);
      EXPECT_EQ(escaped[i - 1], '\\');
    }
  }
  EXPECT_EQ(Unescaped(escaped), hostile);
}

TEST(BenchReportEscapeTest, CommonEscapesUseShortForms) {
  EXPECT_EQ(BenchReport::Escaped("a\nb"), "a\\nb");
  EXPECT_EQ(BenchReport::Escaped("a\tb"), "a\\tb");
  EXPECT_EQ(BenchReport::Escaped("a\rb"), "a\\rb");
  EXPECT_EQ(BenchReport::Escaped("a\"b"), "a\\\"b");
  EXPECT_EQ(BenchReport::Escaped("a\\b"), "a\\\\b");
  EXPECT_EQ(BenchReport::Escaped(std::string(1, '\x1f')), "\\u001f");
  EXPECT_EQ(BenchReport::Escaped("plain name-42"), "plain name-42");
}

// Table cells pad to 10 columns; a label of 10 or more characters must
// still be separated from the next one.
TEST(BenchTableTest, LongLabelsKeepASeparatingSpace) {
  testing::internal::CaptureStdout();
  Header({"rb_s(undo)", "undone"});
  Cell("tot(undo)x");
  Cell(1234567890.0);
  Cell("short");
  EndRow();
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "rb_s(undo) undone    \n"
            "tot(undo)x 1234567890 short     \n");
}

}  // namespace
}  // namespace bench
}  // namespace aspect
