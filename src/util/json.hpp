// Minimal self-contained JSON document model + recursive-descent parser,
// shared by the serve protocol (src/serve), the CLI client's frame reader
// and perfbench's driver.  No external dependency; malformed input throws
// CheckError with an offset diagnostic, which each consumer translates at
// its own boundary (serve: typed ParseError back to the client).
//
// The model keeps object keys in insertion order and does not deduplicate
// them — find() returns the first match, which is what every consumer wants
// for forward-compatible "unknown keys are ignored" reading.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace xatpg::json {

struct Value {
  enum class Type { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// First value stored under `key` (objects only); nullptr when absent.
  [[nodiscard]] const Value* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

/// Parse one complete JSON document (trailing content is an error).
/// Throws CheckError on malformed input, including nesting deeper than 128
/// levels — untrusted bytes must not be able to blow the parser's stack.
[[nodiscard]] Value parse(const std::string& text);

// --- typed field accessors --------------------------------------------------
// Missing keys return the fallback (or zero); present keys with the wrong
// type throw CheckError.  Shared reading discipline for requests and specs.

[[nodiscard]] double num_field(const Value& object, const char* key,
                               double fallback);
[[nodiscard]] std::size_t size_field(const Value& object, const char* key);
[[nodiscard]] std::string string_field(const Value& object, const char* key);
[[nodiscard]] bool bool_field(const Value& object, const char* key,
                              bool fallback);

// --- writing ----------------------------------------------------------------

/// Escape a string for embedding in a JSON double-quoted literal.
[[nodiscard]] std::string escape(const std::string& s);

/// Format a double as a valid JSON number token: non-finite values — which
/// operator<< would emit as the invalid tokens `nan`/`inf` — clamp to 0, and
/// finite values print with max_digits10 precision so parse(number(x)) == x
/// bit-exactly.
[[nodiscard]] std::string number(double value);

}  // namespace xatpg::json
