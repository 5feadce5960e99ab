// strCat, strJoin and CodeWriter::line write the same text as operator<< on
// a default std::ostringstream, for every argument kind the project passes
// them: integers at their extremes, doubles in fixed and exponent form and
// at their special values, floats, every char type, and the string kinds.
// The one deliberate difference is bool, which they have always written as
// true/false (std::boolalpha).  The expected text is computed here with a
// stream, so the helpers may build their text any way they like.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "support/format.h"

namespace sw {
namespace {

template <typename T>
std::string streamed(const T& value) {
  std::ostringstream os;
  os << std::boolalpha << value;
  return os.str();
}

template <typename T>
void expectStreamText(const std::vector<T>& values) {
  for (const T& value : values) {
    const std::string expected = streamed(value);
    EXPECT_EQ(strCat(value), expected);
    EXPECT_EQ(strCat("<", value, ">"), "<" + expected + ">");
    EXPECT_EQ(strJoin(std::vector<T>{value}, ", "), expected);
    CodeWriter writer;
    writer.line(value);
    EXPECT_EQ(writer.str(), expected + "\n");
  }
  // strJoin puts the separator between elements only.
  std::ostringstream joined;
  joined << std::boolalpha;
  for (std::size_t i = 0; i < values.size(); ++i)
    joined << (i == 0 ? "" : " | ") << values[i];
  EXPECT_EQ(strJoin(values, " | "), joined.str());
}

TEST(StrCat, IntegersMatchTheStream) {
  expectStreamText<int>({0, 1, -1, 42, std::numeric_limits<int>::min(),
                         std::numeric_limits<int>::max()});
  expectStreamText<long>({0L, -7L, std::numeric_limits<long>::min(),
                          std::numeric_limits<long>::max()});
  expectStreamText<std::int64_t>({0, 1'000'000'000'000, -3,
                                  std::numeric_limits<std::int64_t>::min(),
                                  std::numeric_limits<std::int64_t>::max()});
  expectStreamText<std::size_t>({0, 9, 10, 65536,
                                 std::numeric_limits<std::size_t>::max()});
  expectStreamText<std::uint64_t>(
      {0, 99, 100, std::numeric_limits<std::uint64_t>::max()});
}

TEST(StrCat, DoublesMatchTheStream) {
  expectStreamText<double>({
      0.0, 0.1, 1.0, 2.5, -3.75, 1e6, 1e-5, 1e-4, 123456789.0, 123456.0,
      1234567.0, 0.000123456789, 1e100, -1e-100, 100.0 * 2.0 / 3.0,
      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min(), 1e-310,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
  });
}

TEST(StrCat, FloatsMatchTheStream) {
  expectStreamText<float>({0.0f, 0.1f, 1.0f / 3.0f, -2.5e7f, 1e-40f,
                           std::numeric_limits<float>::max(),
                           std::numeric_limits<float>::infinity()});
}

TEST(StrCat, BoolsAreWords) {
  expectStreamText<bool>({true, false});
  EXPECT_EQ(strCat(true, '/', false), "true/false");
}

TEST(StrCat, CharTypesAreText) {
  expectStreamText<char>({'a', ' ', '\n', '\0', static_cast<char>(-56)});
  expectStreamText<signed char>({'b', static_cast<signed char>(-1)});
  expectStreamText<unsigned char>({'c', static_cast<unsigned char>(200)});
  EXPECT_EQ(strCat('x', static_cast<signed char>('y'),
                   static_cast<unsigned char>('z')),
            "xyz");
}

TEST(StrCat, StringKindsAreText) {
  expectStreamText<const char*>({"", "plain", "with spaces\tand tabs"});
  expectStreamText<std::string>({"", "s", std::string("nul\0inside", 10)});
  expectStreamText<std::string_view>({"", "view",
                                      std::string_view("abcdef").substr(1, 3)});
  const char array[] = "array";
  EXPECT_EQ(strCat(array, "-literal"), "array-literal");
}

TEST(StrCat, MixedArgumentsConcatenateInOrder) {
  const std::string name = "local_A";
  const std::int64_t offset = -16;
  const double pct = 12.345678;
  std::ostringstream os;
  os << name << "[" << offset << "] " << pct << "% " << 'c' << 3u
     << std::size_t{7} << std::string_view("sv");
  EXPECT_EQ(strCat(name, "[", offset, "] ", pct, "% ", 'c', 3u,
                   std::size_t{7}, std::string_view("sv")),
            os.str());
  EXPECT_EQ(strCat(), "");
  EXPECT_EQ(strJoin(std::vector<std::string>{}, ", "), "");
}

TEST(CodeWriter, LinesCarryTheIndentation) {
  CodeWriter writer(4);
  writer.line("int f(", 2, ", ", 0.5, ") {");
  writer.indent();
  writer.line("return ", std::int64_t{-9}, ";");
  writer.dedent();
  writer.dedent();  // never below zero
  writer.blank();
  writer.line("}");
  EXPECT_EQ(writer.str(), "int f(2, 0.5) {\n    return -9;\n\n}\n");
}

}  // namespace
}  // namespace sw
