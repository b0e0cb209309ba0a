#include "util/flags.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace gorder {

namespace {

[[noreturn]] void BadValue(const std::string& key, const std::string& value,
                           const char* kind) {
  std::fprintf(stderr, "flag --%s: '%s' is not a valid %s\n", key.c_str(),
               value.c_str(), kind);
  std::exit(2);
}

std::int64_t ParseIntStrict(const std::string& key,
                            const std::string& value) {
  std::int64_t v = 0;
  if (!ParseInt64(value, &v)) BadValue(key, value, "integer");
  return v;
}

}  // namespace

bool ParseInt64(const std::string& text, std::int64_t* out) {
  const char* s = text.c_str();
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE) return false;
  *out = v;
  return true;
}

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n",
                   arg.c_str());
      std::exit(2);
    }
    arg = arg.substr(2);
    auto eq = arg.find('=');
    if (eq == std::string::npos) {
      values_[arg] = "true";
    } else {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

bool Flags::Has(const std::string& key) const {
  return values_.count(key) != 0;
}

std::string Flags::GetString(const std::string& key,
                             const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

std::int64_t Flags::GetInt(const std::string& key, std::int64_t def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return ParseIntStrict(key, it->second);
}

std::int64_t Flags::GetIntInRange(const std::string& key, std::int64_t def,
                                  std::int64_t lo, std::int64_t hi) const {
  const std::int64_t v = GetInt(key, def);
  if (v < lo || v > hi) {
    std::fprintf(stderr, "flag --%s: %lld is out of range [%lld, %lld]\n",
                 key.c_str(), static_cast<long long>(v),
                 static_cast<long long>(lo), static_cast<long long>(hi));
    std::exit(2);
  }
  return v;
}

double Flags::GetDouble(const std::string& key, double def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  const char* s = it->second.c_str();
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(s, &end);
  if (end == s || *end != '\0' || errno == ERANGE) {
    BadValue(key, it->second, "number");
  }
  return v;
}

std::vector<int> Flags::GetIntList(const std::string& key,
                                   const std::vector<int>& def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  std::vector<int> result;
  const std::string& value = it->second;
  std::size_t pos = 0;
  while (true) {
    std::size_t comma = value.find(',', pos);
    std::string elem = value.substr(
        pos, comma == std::string::npos ? comma : comma - pos);
    result.push_back(static_cast<int>(ParseIntStrict(key, elem)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return result;
}

bool Flags::GetBool(const std::string& key, bool def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return it->second != "false" && it->second != "0";
}

}  // namespace gorder
