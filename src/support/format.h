// Minimal string formatting helpers (GCC 12 lacks std::format).
//
// `strCat(a, b, ...)` stringifies and concatenates its arguments; it is the
// workhorse for error messages, cache keys and pretty-printers throughout
// the project.  Its text is what `operator<<` on a default output string
// stream writes for the same argument, except that a bool prints as
// true/false, and it is built without a stream: strings and every char
// type as text, integers in decimal, and floating point as printf's "%g"
// (six significant digits).
#pragma once

#include <charconv>
#include <cstddef>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

namespace sw {

namespace detail {

template <typename>
inline constexpr bool kNoTextForm = false;

template <typename T>
inline constexpr bool kIsCharType =
    std::is_same_v<T, char> || std::is_same_v<T, signed char> ||
    std::is_same_v<T, unsigned char>;

/// Append the text of `value` to `out`.
template <typename T>
void appendOne(std::string& out, const T& value) {
  using U = std::remove_cv_t<T>;
  if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out.append(std::string_view(value));
  } else if constexpr (std::is_same_v<U, bool>) {
    out.append(value ? "true" : "false");
  } else if constexpr (kIsCharType<U>) {
    out.push_back(static_cast<char>(value));
  } else if constexpr (std::is_integral_v<U>) {
    char buf[std::numeric_limits<U>::digits10 + 3];
    const std::to_chars_result res =
        std::to_chars(buf, buf + sizeof(buf), value);
    // append(ptr, len): the iterator form trips a false -Wrestrict in
    // GCC 12 Release builds once inlined into long strCat chains.
    out.append(buf, static_cast<std::size_t>(res.ptr - buf));
  } else if constexpr (std::is_floating_point_v<U>) {
    // "%g" at the stream's default precision 6; the longest result,
    // "-1.23457e-4951", needs 14 chars.
    char buf[32];
    const std::to_chars_result res = std::to_chars(
        buf, buf + sizeof(buf), value, std::chars_format::general, 6);
    out.append(buf, static_cast<std::size_t>(res.ptr - buf));
  } else {
    static_assert(kNoTextForm<T>, "strCat: no text form for this type");
  }
}

}  // namespace detail

/// Concatenate the string forms of all arguments.
template <typename... Args>
std::string strCat(const Args&... args) {
  std::string out;
  (detail::appendOne(out, args), ...);
  return out;
}

/// Join the elements of `parts` with `sep`.
template <typename Range>
std::string strJoin(const Range& parts, std::string_view sep) {
  std::string out;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out.append(sep);
    first = false;
    detail::appendOne(out, p);
  }
  return out;
}

/// An indenting code writer used by all pretty-printers.  Lines are emitted
/// with the current indentation prefix; indent()/dedent() adjust nesting.
class CodeWriter {
 public:
  explicit CodeWriter(int indentWidth = 2) : indentWidth_(indentWidth) {}

  void indent() { ++level_; }
  void dedent() {
    if (level_ > 0) --level_;
  }

  /// Emit one full line (indentation + text + newline).
  template <typename... Args>
  void line(const Args&... args) {
    body_.append(static_cast<std::size_t>(level_ * indentWidth_), ' ');
    (detail::appendOne(body_, args), ...);
    body_ += '\n';
  }

  /// Emit a blank line.
  void blank() { body_ += '\n'; }

  [[nodiscard]] const std::string& str() const { return body_; }

 private:
  int indentWidth_;
  int level_ = 0;
  std::string body_;
};

}  // namespace sw
