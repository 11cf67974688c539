#include "util/json_reader.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace dtm {

const char* JsonValue::kind_name(Kind k) {
  switch (k) {
    case Kind::kNull: return "null";
    case Kind::kBool: return "bool";
    case Kind::kNumber: return "number";
    case Kind::kString: return "string";
    case Kind::kArray: return "array";
    case Kind::kObject: return "object";
  }
  return "?";
}

namespace {

void require_kind(const JsonValue& v, JsonValue::Kind want) {
  DTM_REQUIRE(v.kind == want, "JSON: expected " << JsonValue::kind_name(want)
                                                << ", got "
                                                << JsonValue::kind_name(v.kind));
}

}  // namespace

double JsonValue::as_number() const {
  require_kind(*this, Kind::kNumber);
  return number;
}

const std::string& JsonValue::as_string() const {
  require_kind(*this, Kind::kString);
  return str;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  require_kind(*this, Kind::kArray);
  return arr;
}

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  require_kind(*this, Kind::kObject);
  return obj;
}

std::uint64_t JsonValue::as_uint() const {
  const double x = as_number();
  // 2^64 is exact in a double; every whole double below it converts.
  DTM_REQUIRE(x >= 0 && x < 18446744073709551616.0 && std::floor(x) == x,
              "JSON: expected a non-negative whole number, got " << x);
  return static_cast<std::uint64_t>(x);
}

std::int64_t JsonValue::as_int() const {
  const double x = as_number();
  DTM_REQUIRE(x >= -9223372036854775808.0 && x < 9223372036854775808.0 &&
                  std::floor(x) == x,
              "JSON: expected a whole number in int64 range, got " << x);
  return static_cast<std::int64_t>(x);
}

JsonValue JsonReader::parse() {
  JsonValue v = parse_value();
  skip_ws();
  DTM_REQUIRE(pos_ == text_.size(), "JSON: trailing garbage at " << pos_);
  return v;
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size() &&
         (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
          text_[pos_] == '\r')) {
    ++pos_;
  }
}

char JsonReader::peek() {
  skip_ws();
  DTM_REQUIRE(pos_ < text_.size(), "JSON: unexpected end of input");
  return text_[pos_];
}

void JsonReader::expect(char c) {
  DTM_REQUIRE(peek() == c, "JSON: expected '" << c << "' at " << pos_);
  ++pos_;
}

bool JsonReader::try_consume(char c) {
  if (peek() == c) {
    ++pos_;
    return true;
  }
  return false;
}

void JsonReader::expect_literal(const std::string& lit) {
  DTM_REQUIRE(text_.compare(pos_, lit.size(), lit) == 0,
              "JSON: bad literal at " << pos_);
  pos_ += lit.size();
}

JsonValue JsonReader::parse_value() {
  switch (const char c = peek()) {
    case '{':
    case '[': {
      DTM_REQUIRE(++depth_ <= kMaxDepth,
                  "JSON: nesting deeper than " << kMaxDepth << " at " << pos_);
      JsonValue v = c == '{' ? parse_object() : parse_array();
      --depth_;
      return v;
    }
    case '"': {
      JsonValue v;
      v.kind = JsonValue::Kind::kString;
      v.str = parse_string();
      return v;
    }
    case 't': {
      expect_literal("true");
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      v.boolean = true;
      return v;
    }
    case 'f': {
      expect_literal("false");
      JsonValue v;
      v.kind = JsonValue::Kind::kBool;
      return v;
    }
    case 'n': {
      expect_literal("null");
      return JsonValue{};
    }
    default: return parse_number();
  }
}

JsonValue JsonReader::parse_object() {
  expect('{');
  JsonValue v;
  v.kind = JsonValue::Kind::kObject;
  if (try_consume('}')) return v;
  for (;;) {
    const std::string key = (peek(), parse_string());
    expect(':');
    v.obj.emplace(key, parse_value());
    if (try_consume('}')) return v;
    expect(',');
  }
}

JsonValue JsonReader::parse_array() {
  expect('[');
  JsonValue v;
  v.kind = JsonValue::Kind::kArray;
  if (try_consume(']')) return v;
  for (;;) {
    v.arr.push_back(parse_value());
    if (try_consume(']')) return v;
    expect(',');
  }
}

std::string JsonReader::parse_string() {
  expect('"');
  std::string out;
  while (pos_ < text_.size() && text_[pos_] != '"') {
    char c = text_[pos_++];
    if (c != '\\') {
      out += c;
      continue;
    }
    DTM_REQUIRE(pos_ < text_.size(), "JSON: dangling escape");
    const char esc = text_[pos_++];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        DTM_REQUIRE(pos_ + 4 <= text_.size(), "JSON: short \\u escape");
        const std::string hex = text_.substr(pos_, 4);
        DTM_REQUIRE(std::all_of(hex.begin(), hex.end(),
                                [](unsigned char h) { return std::isxdigit(h); }),
                    "JSON: bad \\u escape at " << pos_);
        const auto code = static_cast<unsigned>(std::stoul(hex, nullptr, 16));
        pos_ += 4;
        // Our artifacts only escape ASCII control chars; reject the rest
        // rather than mis-decoding surrogate pairs.
        DTM_REQUIRE(code < 0x80, "JSON: non-ASCII \\u escape unsupported");
        out += static_cast<char>(code);
        break;
      }
      default: throw Error("JSON: bad escape character");
    }
  }
  expect('"');
  return out;
}

JsonValue JsonReader::parse_number() {
  const std::size_t start = pos_;
  while (pos_ < text_.size() &&
         (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
          text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
          text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
  }
  DTM_REQUIRE(pos_ > start, "JSON: expected a value at " << start);
  // The whole token must be one finite number ("1.2.3" and "1e999" are
  // not), and a bad one fails as dtm::Error.
  const std::string token = text_.substr(start, pos_ - start);
  char* end = nullptr;
  JsonValue v;
  v.kind = JsonValue::Kind::kNumber;
  v.number = std::strtod(token.c_str(), &end);
  DTM_REQUIRE(end == token.c_str() + token.size() && std::isfinite(v.number),
              "JSON: bad number '" << token << "' at " << start);
  return v;
}

JsonValue load_json_file(const std::string& path) {
  std::ifstream in(path);
  DTM_REQUIRE(in.good(), "cannot open " << path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  return JsonReader(text).parse();
}

}  // namespace dtm
