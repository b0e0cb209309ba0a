#ifndef GORDER_UTIL_FLAGS_H_
#define GORDER_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gorder {

/// Strict base-10 integer parse: the whole string must be a number (no
/// empty input, no trailing garbage, no overflow). Returns false without
/// touching *out on failure. Shared by the flag parser and by env-var
/// consumers like GORDER_THREADS so every numeric knob rejects typos the
/// same way instead of silently truncating ("4x" -> 4).
bool ParseInt64(const std::string& text, std::int64_t* out);

/// Tiny `--key=value` / `--flag` command-line parser for the benchmark and
/// example binaries. Unknown positional arguments are rejected so typos in
/// experiment scripts fail loudly instead of silently running defaults —
/// and so are malformed numeric values: `--threads=4x` exits with a clear
/// error instead of being truncated to 4.
class Flags {
 public:
  /// Parses argv. Aborts with a usage message on malformed input.
  Flags(int argc, char** argv);

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& def) const;
  /// Numeric getters exit(2) with a diagnostic if the value is present
  /// but not fully parseable (empty, non-numeric, trailing garbage).
  std::int64_t GetInt(const std::string& key, std::int64_t def) const;
  /// GetInt for a value that must lie in [lo, hi]: one outside exits(2)
  /// with a diagnostic naming the range.
  std::int64_t GetIntInRange(const std::string& key, std::int64_t def,
                             std::int64_t lo, std::int64_t hi) const;
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;
  /// Comma-separated integer list, e.g. `--threads=1,2,8`. Every element
  /// is parsed strictly; empty elements are rejected.
  std::vector<int> GetIntList(const std::string& key,
                              const std::vector<int>& def) const;

  /// All parsed `--key=value` pairs verbatim (bare `--flag` maps to "").
  /// Run reports embed this so a result file is self-describing.
  const std::map<std::string, std::string>& Raw() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace gorder

#endif  // GORDER_UTIL_FLAGS_H_
