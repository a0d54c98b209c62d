// Minimal streaming JSON writer shared by the observability exporters (the
// metrics registry's JSON dump, the Chrome trace exporter) and the benchmark
// `--json` emitters. It produces compact, valid JSON and nothing else — no
// parsing, no DOM — because every consumer here only ever *writes*.
//
// Commas and nesting are managed by an explicit container stack, so callers
// compose Begin/End/Key/value calls without tracking "is this the first
// element" themselves. Strings are escaped the same way the verdict journal
// escapes them (control bytes become \u00XX).
#ifndef ICARUS_OBS_JSON_H_
#define ICARUS_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace icarus::obs {

class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  // Object key; must be followed by exactly one value (or Begin*).
  JsonWriter& Key(std::string_view key);

  JsonWriter& String(std::string_view value);
  JsonWriter& Int(int64_t value);
  // Doubles render with %.17g (exact strtod round-trip); NaN/Inf, which JSON
  // cannot represent, render as null.
  JsonWriter& Double(double value);
  JsonWriter& Bool(bool value);
  JsonWriter& Null();

  // The accumulated document. Valid once every container is closed.
  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void BeforeValue();
  void AppendEscaped(std::string_view s);

  std::string out_;
  // One entry per open container: true until the first element is written.
  std::vector<bool> first_in_container_;
  bool after_key_ = false;
};

}  // namespace icarus::obs

#endif  // ICARUS_OBS_JSON_H_
