// String formatting and manipulation helpers.
//
// GCC 12 in this environment lacks <format>, so we provide a printf-style
// StrFormat plus small composable helpers used throughout the toolchain.
#ifndef ICARUS_SUPPORT_STR_UTIL_H_
#define ICARUS_SUPPORT_STR_UTIL_H_

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace icarus {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Variadic streaming concatenation: StrCat("x=", 3, " y=", 4.5).
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  ((os << args), ...);  // A comma fold: no effectless `os;` for StrCat().
  return os.str();
}

// Joins `parts` with `sep` between each element.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Splits `text` on the single character `sep`; keeps empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// True if `text` contains `needle`.
bool Contains(std::string_view text, std::string_view needle);

// Replaces every occurrence of `from` with `to`.
std::string ReplaceAll(std::string_view text, std::string_view from, std::string_view to);

// Indents every line of `text` by `spaces` spaces.
std::string Indent(std::string_view text, int spaces);

// Counts non-blank lines; used to report DSL LoC the way Figure 12 does.
int CountNonBlankLines(std::string_view text);

}  // namespace icarus

#endif  // ICARUS_SUPPORT_STR_UTIL_H_
