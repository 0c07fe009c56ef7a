#include "core/jsonl.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace drivefi::core {

std::string json_escape(const std::string& field) {
  std::string out;
  for (char c : field) {
    const auto u = static_cast<unsigned char>(c);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (u < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", u);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string scrub_wall_seconds(std::string jsonl) {
  const std::string key = ",\"wall_seconds\":";
  std::size_t pos;
  while ((pos = jsonl.find(key)) != std::string::npos) {
    const std::size_t end = jsonl.find('}', pos);
    jsonl.erase(pos, end - pos);
  }
  return jsonl;
}

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error("jsonl: " + what);
}

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  bad("invalid hex digit in \\u escape");
}

}  // namespace

std::uint64_t parse_u64_strict(const std::string& text,
                               const std::string& context) {
  // A bare digit check up front: std::stoull would silently WRAP a
  // negative value ("-18" becomes 2^64-18), turning a corrupt field into
  // a giant allocation downstream instead of the promised diagnostic.
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text.front())))
    bad(context + " is not an unsigned integer: " + text);
  std::size_t used = 0;
  std::uint64_t out = 0;
  try {
    out = std::stoull(text, &used);
  } catch (const std::exception&) {
    bad(context + " is not an unsigned integer: " + text);
  }
  if (used != text.size())
    bad(context + " has trailing bytes: " + text);
  return out;
}

double parse_double_strict(const std::string& text,
                           const std::string& context) {
  if (text.empty() || text.front() == '"')
    bad(context + " is not a number: " + text);
  // std::strtod rather than std::stod: stod throws on ANY ERANGE, which
  // rejects the subnormals our writers emit (4.9406564584124654e-324). On
  // underflow strtod already returns the correctly rounded value, so only
  // overflow (an infinite result with ERANGE) is out of range.
  errno = 0;
  char* end = nullptr;
  const double out = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || (errno == ERANGE && std::isinf(out)))
    bad(context + " is not a number: " + text);
  if (end != text.c_str() + text.size())
    bad(context + " has trailing bytes: " + text);
  return out;
}

bool parse_bool_strict(const std::string& text, const std::string& context) {
  if (text == "true") return true;
  if (text == "false") return false;
  bad(context + " is not a boolean: " + text);
}

std::string json_unescape(const std::string& field) {
  std::string out;
  out.reserve(field.size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    const char c = field[i];
    if (c != '\\') {
      out += c;
      continue;
    }
    if (++i >= field.size()) bad("dangling backslash in string");
    switch (field[i]) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        if (i + 4 >= field.size()) bad("truncated \\u escape");
        int code = 0;
        for (int k = 1; k <= 4; ++k) code = code * 16 + hex_value(field[i + k]);
        i += 4;
        // Our writers only \u-escape control characters; anything above
        // 0x7f would need UTF-8 encoding we deliberately do not do.
        if (code >= 0x80) bad("\\u escape above 0x7f is unsupported");
        out += static_cast<char>(code);
        break;
      }
      default:
        bad(std::string("unknown escape \\") + field[i]);
    }
  }
  return out;
}

JsonLine::JsonLine(const std::string& line) : line_(line) {
  std::size_t i = 0;
  const auto skip_ws = [&] {
    while (i < line_.size() && std::isspace(static_cast<unsigned char>(line_[i])))
      ++i;
  };
  const auto expect = [&](char c) {
    skip_ws();
    if (i >= line_.size() || line_[i] != c)
      bad(std::string("expected '") + c + "' in: " + line_);
    ++i;
  };
  // Scans a string literal (escapes intact) and returns it WITHOUT quotes.
  const auto scan_string = [&]() -> std::string {
    expect('"');
    const std::size_t start = i;
    while (i < line_.size() && line_[i] != '"') {
      if (line_[i] == '\\') {
        ++i;
        if (i >= line_.size()) bad("unterminated escape in: " + line_);
      }
      ++i;
    }
    if (i >= line_.size()) bad("unterminated string in: " + line_);
    return line_.substr(start, i++ - start);
  };

  expect('{');
  skip_ws();
  if (i < line_.size() && line_[i] == '}') {
    ++i;
  } else {
    for (;;) {
      const std::string key = scan_string();
      expect(':');
      skip_ws();
      if (i >= line_.size()) bad("missing value in: " + line_);
      std::string value;
      if (line_[i] == '"') {
        // Keep the quotes so accessors can tell strings from numbers.
        value = '"' + scan_string() + '"';
      } else if (line_[i] == '{' || line_[i] == '[') {
        bad("nested values are not supported: " + line_);
      } else {
        const std::size_t start = i;
        while (i < line_.size() && line_[i] != ',' && line_[i] != '}') ++i;
        value = line_.substr(start, i - start);
        while (!value.empty() &&
               std::isspace(static_cast<unsigned char>(value.back())))
          value.pop_back();
        if (value.empty()) bad("empty value in: " + line_);
      }
      fields_.emplace_back(key, value);
      skip_ws();
      if (i >= line_.size()) bad("unterminated object: " + line_);
      if (line_[i] == ',') {
        ++i;
        continue;
      }
      if (line_[i] == '}') {
        ++i;
        break;
      }
      bad("expected ',' or '}' in: " + line_);
    }
  }
  skip_ws();
  if (i != line_.size()) bad("trailing bytes after object: " + line_);
}

bool JsonLine::has(const std::string& key) const {
  for (const auto& [k, v] : fields_)
    if (k == key) return true;
  return false;
}

const std::string& JsonLine::raw(const std::string& key) const {
  for (const auto& [k, v] : fields_)
    if (k == key) return v;
  bad("missing field \"" + key + "\" in: " + line_);
}

std::string JsonLine::get_string(const std::string& key) const {
  const std::string& v = raw(key);
  if (v.size() < 2 || v.front() != '"' || v.back() != '"')
    bad("field \"" + key + "\" is not a string in: " + line_);
  return json_unescape(v.substr(1, v.size() - 2));
}

std::uint64_t JsonLine::get_u64(const std::string& key) const {
  return parse_u64_strict(raw(key), "field \"" + key + "\" in " + line_);
}

double JsonLine::get_double(const std::string& key) const {
  return parse_double_strict(raw(key), "field \"" + key + "\" in " + line_);
}

bool JsonLine::get_bool(const std::string& key) const {
  return parse_bool_strict(raw(key), "field \"" + key + "\" in " + line_);
}

}  // namespace drivefi::core
