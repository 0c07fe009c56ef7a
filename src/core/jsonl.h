/// \file
/// Minimal JSONL plumbing shared by the campaign output layer: RFC 8259
/// string escaping/unescaping and a flat-object field reader. The campaign
/// formats (result sinks, the campaign manifest, the shard result store)
/// emit single-line JSON objects whose values are strings, numbers, or
/// booleans -- never nested -- so a full JSON parser is deliberately out of
/// scope. Parsing is strict about what these writers produce and throws
/// std::runtime_error on anything else.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace drivefi::core {

/// RFC 8259 string escaping: quote, backslash, and EVERY control character
/// below 0x20 (named shorthands where they exist, \\u00XX otherwise), so a
/// pathological description can never break a record's framing.
std::string json_escape(const std::string& field);

/// Inverse of json_escape. Accepts the full RFC 8259 escape set including
/// \\u00XX (only codepoints below 0x80 are produced by our writers; larger
/// ones are rejected). Throws std::runtime_error on a malformed escape.
std::string json_unescape(const std::string& field);

/// Drops every `wall_seconds` field from a JSONL stream -- the one
/// legitimately non-deterministic payload, always written as a record's
/// LAST field (keep it that way; this helper and every byte-equality gate
/// in the tests and benches rely on it).
std::string scrub_wall_seconds(std::string jsonl);

/// Strict numeric/boolean value parsing, shared by every JSON-field
/// consumer (JsonLine accessors, the manifest parser, the shard stores,
/// the fleet protocol, CLI value validation). One definition of "valid"
/// so the formats can never drift: negatives, leading '+', overflow, hex,
/// empty input, and trailing garbage are all rejected with an exception
/// naming `context`. Covered adversarially by tests/format_fuzz_test.cpp.
///
/// parse_u64_strict accepts only `[0-9]+` that fits std::uint64_t.
std::uint64_t parse_u64_strict(const std::string& text,
                               const std::string& context);
/// parse_double_strict accepts what our writers emit: decimal literals
/// (std::strtod grammar, which includes `nan`/`inf` spellings, subnormals
/// included), never a quoted string, never trailing bytes, never a
/// literal that overflows to infinity.
double parse_double_strict(const std::string& text,
                           const std::string& context);
/// parse_bool_strict accepts exactly `true` or `false`.
bool parse_bool_strict(const std::string& text, const std::string& context);

/// Read-only view over one flat JSON object line, e.g.
/// `{"type":"run","run_index":3,"description":"..."}`. Field values must be
/// strings, numbers, or `true`/`false`; nested objects/arrays are rejected.
/// Accessors throw std::runtime_error (with the field name) when a field is
/// missing or has the wrong shape, so callers get actionable messages when
/// a store or manifest line is corrupt.
class JsonLine {
 public:
  /// Parses `line`. Throws std::runtime_error if it is not a flat object.
  explicit JsonLine(const std::string& line);

  bool has(const std::string& key) const;
  std::string get_string(const std::string& key) const;
  std::uint64_t get_u64(const std::string& key) const;
  double get_double(const std::string& key) const;
  bool get_bool(const std::string& key) const;

 private:
  /// Raw (still-escaped for strings, quote-delimited) value text per key.
  const std::string& raw(const std::string& key) const;

  std::string line_;  // kept for error messages
  /// Flat key -> raw value text. A vector keeps it dependency-light; these
  /// objects have at most ~15 fields so linear lookup is fine.
  std::vector<std::pair<std::string, std::string>> fields_;
};

}  // namespace drivefi::core
