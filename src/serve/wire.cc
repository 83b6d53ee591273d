#include "serve/wire.h"

#include <cstdlib>
#include <cstring>

namespace rlbench::serve {

Status AppendFrame(std::string_view payload, std::string* out) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument(
        "wire: frame payload of " + std::to_string(payload.size()) +
        " bytes exceeds limit");
  }
  uint32_t n = static_cast<uint32_t>(payload.size());
  char header[kFrameHeaderBytes] = {
      static_cast<char>((n >> 24) & 0xFF), static_cast<char>((n >> 16) & 0xFF),
      static_cast<char>((n >> 8) & 0xFF), static_cast<char>(n & 0xFF)};
  out->append(header, kFrameHeaderBytes);
  out->append(payload);
  return Status::OK();
}

Result<size_t> DecodeFrameHeader(const char* header) {
  uint32_t n = 0;
  for (size_t i = 0; i < kFrameHeaderBytes; ++i) {
    n = (n << 8) | static_cast<unsigned char>(header[i]);
  }
  if (n > kMaxFramePayload) {
    return Status::InvalidArgument("wire: frame of " + std::to_string(n) +
                                   " bytes exceeds limit");
  }
  return static_cast<size_t>(n);
}

Result<std::optional<std::string>> FrameDecoder::Next() {
  if (buffer_.size() < kFrameHeaderBytes) return std::optional<std::string>{};
  RLBENCH_ASSIGN_OR_RETURN(size_t payload, DecodeFrameHeader(buffer_.data()));
  if (buffer_.size() < kFrameHeaderBytes + payload) {
    return std::optional<std::string>{};
  }
  std::string frame = buffer_.substr(kFrameHeaderBytes, payload);
  buffer_.erase(0, kFrameHeaderBytes + payload);
  return std::optional<std::string>(std::move(frame));
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::GetString(const std::string& key,
                                 std::string fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_ : std::move(fallback);
}

double JsonValue::GetNumber(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_ : fallback;
}

bool JsonValue::GetBool(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_bool()) ? v->bool_ : fallback;
}

Result<std::string> JsonValue::RequireString(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_string()) {
    return Status::InvalidArgument("wire: missing string field \"" + key +
                                   "\"");
  }
  return v->string_;
}

Result<double> JsonValue::RequireNumber(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_number()) {
    return Status::InvalidArgument("wire: missing number field \"" + key +
                                   "\"");
  }
  return v->number_;
}

Result<const JsonValue*> JsonValue::RequireArray(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_array()) {
    return Status::InvalidArgument("wire: missing array field \"" + key +
                                   "\"");
  }
  return v;
}

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double n) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::Object(
    std::vector<std::pair<std::string, JsonValue>> items) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(items);
  return v;
}

namespace {

// Recursive-descent parser over untrusted bytes: bounded nesting, strict
// grammar, no exceptions. It is the repo's one JSON reader: the obs tests
// parse every trace and manifest the obs emitters write back through it.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipSpace();
    RLBENCH_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("wire: trailing bytes after JSON value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace() {
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_).substr(0, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Status Error(const std::string& what) {
    return Status::InvalidArgument("wire: " + what + " at byte " +
                                   std::to_string(pos_));
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        RLBENCH_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::String(std::move(s));
      }
      case 't':
        if (ConsumeLiteral("true")) return JsonValue::Bool(true);
        return Error("bad literal");
      case 'f':
        if (ConsumeLiteral("false")) return JsonValue::Bool(false);
        return Error("bad literal");
      case 'n':
        if (ConsumeLiteral("null")) return JsonValue::Null();
        return Error("bad literal");
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> items;
    SkipSpace();
    if (Consume('}')) return JsonValue::Object(std::move(items));
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      RLBENCH_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipSpace();
      if (!Consume(':')) return Error("expected ':'");
      SkipSpace();
      RLBENCH_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      items.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return JsonValue::Object(std::move(items));
      return Error("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipSpace();
    if (Consume(']')) return JsonValue::Array(std::move(items));
    while (true) {
      SkipSpace();
      RLBENCH_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      items.push_back(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return JsonValue::Array(std::move(items));
      return Error("expected ',' or ']'");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        ++pos_;
        continue;
      }
      ++pos_;  // '\'
      if (pos_ >= text_.size()) return Error("dangling escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          RLBENCH_ASSIGN_OR_RETURN(uint32_t code, ParseHex4());
          // Combine a surrogate pair when one follows; a lone surrogate
          // becomes U+FFFD rather than invalid UTF-8.
          if (code >= 0xD800 && code <= 0xDBFF &&
              text_.substr(pos_).substr(0, 2) == "\\u") {
            size_t save = pos_;
            pos_ += 2;
            RLBENCH_ASSIGN_OR_RETURN(uint32_t low, ParseHex4());
            if (low >= 0xDC00 && low <= 0xDFFF) {
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
              pos_ = save;
              code = 0xFFFD;
            }
          } else if (code >= 0xD800 && code <= 0xDFFF) {
            code = 0xFFFD;
          }
          AppendUtf8(code, &out);
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("bad \\u escape");
      }
    }
    return code;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Error("bad number");
    }
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (Consume('.')) {
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Error("bad number");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Error("bad number");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
      }
    }
    // The token is already validated, so strtod on a NUL-terminated copy
    // parses exactly this span.
    std::string token(text_.substr(start, pos_ - start));
    double value = std::strtod(token.c_str(), nullptr);
    return JsonValue::Number(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace rlbench::serve
