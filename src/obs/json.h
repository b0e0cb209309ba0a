#ifndef GORDER_OBS_JSON_H_
#define GORDER_OBS_JSON_H_

/// Minimal JSON writer and parser — the repo's only JSON dependency.
/// The writer produces compact, strictly valid output: strings are
/// escaped per RFC 8259 (quote, backslash, control characters as \u00XX)
/// and non-finite doubles are emitted as null (JSON has no NaN/Inf).
/// The parser (ParseJson) reads back what the writer produces — it
/// exists so gordertop can consume kStats snapshots.
///
/// Usage is push-style and state-checked only by convention: callers
/// alternate Key()/value inside objects and bare values inside arrays.
/// Commas are inserted automatically.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace gorder::obs {

class JsonWriter {
 public:
  JsonWriter() = default;

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Emits the member name; the next value call supplies its value.
  void Key(std::string_view name);

  void String(std::string_view value);
  void Int(std::int64_t value);
  void Uint(std::uint64_t value);
  /// Non-finite values become null.
  void Double(double value);
  void Bool(bool value);
  void Null();

  /// Key/value shorthands.
  void KV(std::string_view key, std::string_view value) {
    Key(key);
    String(value);
  }
  void KV(std::string_view key, const char* value) {
    Key(key);
    String(value);
  }
  void KV(std::string_view key, std::int64_t value) {
    Key(key);
    Int(value);
  }
  void KV(std::string_view key, std::uint64_t value) {
    Key(key);
    Uint(value);
  }
  void KV(std::string_view key, int value) {
    Key(key);
    Int(value);
  }
  void KV(std::string_view key, double value) {
    Key(key);
    Double(value);
  }
  void KV(std::string_view key, bool value) {
    Key(key);
    Bool(value);
  }

  const std::string& str() const { return out_; }
  std::string TakeString() { return std::move(out_); }

  /// Appends `s` escaped (without surrounding quotes) to `out` — exposed
  /// so tests can probe the escaper directly.
  static void AppendEscaped(std::string& out, std::string_view s);

 private:
  void MaybeComma();

  std::string out_;
  bool need_comma_ = false;
};

/// Parsed JSON value. Numbers keep both spellings: `num` always holds
/// the double value; `is_uint`/`uint` additionally hold an exact u64
/// when the token was a plain non-negative integer (metric counters
/// exceed 2^53, so the double alone would silently round).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double num = 0.0;
  bool is_uint = false;
  std::uint64_t uint = 0;
  std::string str;
  std::vector<JsonValue> array;
  // Insertion-ordered lookup is unnecessary; metric maps are sorted.
  std::map<std::string, JsonValue> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }

  /// Numeric member as u64 (rounded from double if needed); `fallback`
  /// when absent or non-numeric.
  std::uint64_t U64(const std::string& key, std::uint64_t fallback = 0) const {
    const JsonValue* v = Find(key);
    if (v == nullptr || v->kind != Kind::kNumber) return fallback;
    return v->is_uint ? v->uint : static_cast<std::uint64_t>(v->num);
  }
};

/// Parses one complete JSON document (RFC 8259). \uXXXX escapes decode
/// to UTF-8, including UTF-16 surrogate pairs; unpaired surrogates are
/// rejected so string values are always well-formed UTF-8.
/// Returns false and fills `error` (with byte offset) on malformed
/// input; trailing non-whitespace after the document is an error.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

}  // namespace gorder::obs

#endif  // GORDER_OBS_JSON_H_
