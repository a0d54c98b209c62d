// The flat-JSON-line dialect shared by the daemon wire protocol, the daemon
// `stats` document, and every other line-oriented exchange format in the tree:
// one JSON object per line, string / number / bool / null values only (no
// nesting), unknown keys skipped, so either side of an exchange can be newer
// than the other without breaking it.
//
// Writers build lines with AppendJsonString (controls escape as \u00XX);
// readers scan them with FlatLineParser, which surfaces each key through a
// string or number callback. A pre-rendered document (the daemon `stats`
// object) travels inside a string field of a flat line.
#ifndef ICARUS_SUPPORT_FLAT_JSON_H_
#define ICARUS_SUPPORT_FLAT_JSON_H_

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

namespace icarus {

// Appends `s` as a quoted JSON string, escaping quotes, backslashes, and
// control bytes (\n \r \t named; anything else below 0x20 as \u00XX).
void AppendJsonString(std::string_view s, std::string* out);

// Narrows a number FlatLineParser surfaced to the integer type T, truncating
// toward zero. Returns false, leaving *out untouched, when the value is NaN or
// out of T's range, where the conversion would be undefined behaviour.
template <typename T>
bool NarrowJsonNumber(double value, T* out) {
  // Both bounds are exact in double: min() is a power of two, and max() + 1
  // is (after rounding) the next one.
  if (!(value >= static_cast<double>(std::numeric_limits<T>::min()) &&
        value < static_cast<double>(std::numeric_limits<T>::max()) + 1.0)) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

// Flat-object scanner with a per-key callback. Bools surface as numbers
// (0/1), nulls are skipped, unknown keys are the callback's business. A
// number outside double's range (e.g. 1e999) makes the line malformed.
class FlatLineParser {
 public:
  explicit FlatLineParser(std::string_view line)
      : p_(line.data()), end_(line.data() + line.size()) {}

  // `on_string(key, value)` / `on_number(key, value)`. Returns false on
  // malformed input.
  template <typename OnString, typename OnNumber>
  bool Parse(OnString&& on_string, OnNumber&& on_number) {
    SkipWs();
    if (!Consume('{')) {
      return false;
    }
    SkipWs();
    if (Consume('}')) {
      return AtEnd();
    }
    while (true) {
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (!Consume(':')) {
        return false;
      }
      SkipWs();
      if (p_ < end_ && *p_ == '"') {
        std::string value;
        if (!ParseString(&value)) {
          return false;
        }
        on_string(key, std::move(value));
      } else if (end_ - p_ >= 4 && std::string_view(p_, 4) == "true") {
        p_ += 4;
        on_number(key, 1.0);
      } else if (end_ - p_ >= 5 && std::string_view(p_, 5) == "false") {
        p_ += 5;
        on_number(key, 0.0);
      } else if (end_ - p_ >= 4 && std::string_view(p_, 4) == "null") {
        p_ += 4;
      } else {
        double value = 0;
        if (!ParseNumber(&value)) {
          return false;
        }
        on_number(key, value);
      }
      SkipWs();
      if (Consume(',')) {
        SkipWs();
        continue;
      }
      break;
    }
    if (!Consume('}')) {
      return false;
    }
    return AtEnd();
  }

 private:
  void SkipWs() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\r')) {
      ++p_;
    }
  }
  bool AtEnd() {
    SkipWs();
    return p_ == end_;
  }
  bool Consume(char c) {
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    out->clear();
    while (p_ < end_ && *p_ != '"') {
      char c = *p_++;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (p_ >= end_) {
        return false;
      }
      char e = *p_++;
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (end_ - p_ < 4) {
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return false;
            }
          }
          // The writers only emit \u00XX for control bytes; decode the
          // low byte and pass anything wider through as '?' rather than
          // growing a UTF-8 encoder for data we never produce.
          out->push_back(code <= 0xff ? static_cast<char>(code) : '?');
          break;
        }
        default:
          return false;
      }
    }
    return Consume('"');
  }

  bool ParseNumber(double* out) {
    const char* start = p_;
    while (p_ < end_ &&
           (*p_ == '-' || *p_ == '+' || *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
            (*p_ >= '0' && *p_ <= '9'))) {
      ++p_;
    }
    if (p_ == start) {
      return false;
    }
    std::string text(start, p_);
    char* endp = nullptr;
    errno = 0;
    *out = std::strtod(text.c_str(), &endp);
    return errno != ERANGE && endp == text.c_str() + text.size();
  }

  const char* p_;
  const char* end_;
};

}  // namespace icarus

#endif  // ICARUS_SUPPORT_FLAT_JSON_H_
