// Minimal recursive-descent JSON reader (objects, arrays, strings,
// numbers, bools, null) — enough for the dtm-bench-v1 and dtm-trace-*
// schemas, no third-party deps. Hoisted out of tools/bench_compare so
// trace_summarize and tests can share it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dtm {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const {
    const auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }

  /// Typed reads: the value as that kind, or dtm::Error naming the kind
  /// expected and the kind found — a wrong-kind value never reads as 0 or
  /// empty.
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::map<std::string, JsonValue>& as_object() const;
  /// A whole number in [0, 2^64) (counts, indices); dtm::Error otherwise,
  /// checked before any conversion, so no out-of-range cast can happen.
  std::uint64_t as_uint() const;
  /// A whole number in [-2^63, 2^63).
  std::int64_t as_int() const;

  static const char* kind_name(Kind k);
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  /// Parses the whole input as one document; throws dtm::Error on
  /// malformed input (including numbers that do not parse whole or are not
  /// finite), trailing garbage, or nesting deeper than kMaxDepth.
  JsonValue parse();

  /// Deepest array/object nesting accepted. The repo's artifacts nest a
  /// few levels; the cap keeps hostile input from overflowing the stack of
  /// this recursive-descent parser.
  static constexpr std::size_t kMaxDepth = 64;

 private:
  void skip_ws();
  char peek();
  void expect(char c);
  bool try_consume(char c);
  void expect_literal(const std::string& lit);
  JsonValue parse_value();
  JsonValue parse_object();
  JsonValue parse_array();
  std::string parse_string();
  JsonValue parse_number();

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

/// Reads and parses a whole JSON file; throws dtm::Error when the file is
/// unreadable or malformed.
JsonValue load_json_file(const std::string& path);

}  // namespace dtm
