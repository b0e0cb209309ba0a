#include "util/failpoint.h"

#include <cstdio>
#include <cstdlib>

namespace gorder::util {

void ArmFailpointsFlag(const std::string& spec) {
  if (spec.empty()) return;
#if defined(GORDER_FAILPOINTS_ENABLED)
  std::string error;
  if (!ArmFailpointsFromSpec(spec, &error)) {
    std::fprintf(stderr, "--failpoints: %s\n", error.c_str());
    std::exit(2);
  }
#else
  std::fprintf(stderr,
               "--failpoints requires a -DGORDER_FAILPOINTS=ON build; "
               "this binary has fault injection compiled out\n");
  std::exit(2);
#endif
}

}  // namespace gorder::util

#if defined(GORDER_FAILPOINTS_ENABLED)

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>

#include "obs/metrics.h"

namespace gorder::util {

namespace internal {

/// Per-point state. Leaked intentionally (handles embedded in IO paths
/// must outlive static destruction, same policy as the obs registry).
struct FailpointState {
  std::string name;
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> fires{0};
  // Armed spec. kind == kNone means disarmed; nth is the 1-based hit
  // ordinal (counted from arming) that fires; sticky fires on every hit
  // >= nth instead of exactly the nth.
  std::atomic<int> kind{0};
  std::atomic<std::uint64_t> nth{1};
  std::atomic<bool> sticky{false};
  // obs mirror (registered lazily so GORDER_OBS=off builds stay clean).
  obs::Counter* obs_hits = nullptr;
  obs::Counter* obs_fires = nullptr;
};

}  // namespace internal

namespace {

using internal::FailpointState;

struct ArmedSpec {
  FaultKind kind = FaultKind::kError;
  std::uint64_t nth = 1;
  bool sticky = false;
};

/// Registry of every failpoint ever defined, plus specs parsed before
/// their point registered (env specs are read during static init, and
/// TU initialisation order is unspecified).
struct Registry {
  std::mutex mu;
  std::map<std::string, FailpointState*> points;
  std::map<std::string, ArmedSpec> pending;

  static Registry& Get() {
    static Registry* r = new Registry;
    return *r;
  }
};

void Apply(FailpointState* state, const ArmedSpec& spec) {
  state->hits.store(0, std::memory_order_relaxed);
  state->nth.store(spec.nth, std::memory_order_relaxed);
  state->sticky.store(spec.sticky, std::memory_order_relaxed);
  state->kind.store(static_cast<int>(spec.kind), std::memory_order_relaxed);
}

bool ParseKind(const std::string& s, FaultKind* out) {
  if (s == "err") *out = FaultKind::kError;
  else if (s == "short") *out = FaultKind::kShort;
  else if (s == "enospc") *out = FaultKind::kEnospc;
  else if (s == "oom") *out = FaultKind::kOom;
  else return false;
  return true;
}

/// Parses one `name=kind[@N[+]]` entry. Returns false with a message on
/// malformed input.
bool ParseEntry(const std::string& entry, std::string* name, ArmedSpec* spec,
                std::string* error) {
  const std::size_t eq = entry.find('=');
  if (eq == std::string::npos || eq == 0) {
    *error = "failpoint spec '" + entry + "' is not name=kind[@N[+]]";
    return false;
  }
  *name = entry.substr(0, eq);
  std::string rhs = entry.substr(eq + 1);
  *spec = ArmedSpec{};
  const std::size_t at = rhs.find('@');
  if (at != std::string::npos) {
    std::string count = rhs.substr(at + 1);
    rhs = rhs.substr(0, at);
    if (!count.empty() && count.back() == '+') {
      spec->sticky = true;
      count.pop_back();
    }
    if (count.empty() ||
        count.find_first_not_of("0123456789") != std::string::npos) {
      *error = "failpoint spec '" + entry + "': '@" + count +
               "' is not a positive hit count";
      return false;
    }
    spec->nth = std::strtoull(count.c_str(), nullptr, 10);
    if (spec->nth == 0) {
      *error = "failpoint spec '" + entry + "': hit count must be >= 1";
      return false;
    }
  }
  if (!ParseKind(rhs, &spec->kind)) {
    *error = "failpoint spec '" + entry + "': unknown kind '" + rhs +
             "' (want err|short|enospc|oom)";
    return false;
  }
  return true;
}

bool ParseSpec(const std::string& spec,
               std::vector<std::pair<std::string, ArmedSpec>>* out,
               std::string* error) {
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t sep = spec.find_first_of(";,", pos);
    if (sep == std::string::npos) sep = spec.size();
    const std::string entry = spec.substr(pos, sep - pos);
    if (!entry.empty()) {
      std::string name;
      ArmedSpec armed;
      if (!ParseEntry(entry, &name, &armed, error)) return false;
      out->emplace_back(std::move(name), armed);
    }
    pos = sep + 1;
  }
  return true;
}

/// Env arming: GORDER_FAILPOINTS is parsed once, when the first
/// failpoint registers (i.e. during static init). Points that register
/// later pick their spec up from the pending map; a malformed spec
/// aborts immediately so a typo'd test run cannot silently inject
/// nothing.
void LoadEnvSpecsLocked(Registry& r) {
  static bool loaded = false;
  if (loaded) return;
  loaded = true;
  const char* env = std::getenv("GORDER_FAILPOINTS");
  if (env == nullptr || env[0] == '\0') return;
  std::vector<std::pair<std::string, ArmedSpec>> parsed;
  std::string error;
  if (!ParseSpec(env, &parsed, &error)) {
    std::fprintf(stderr, "GORDER_FAILPOINTS: %s\n", error.c_str());
    std::abort();
  }
  for (auto& [name, spec] : parsed) r.pending[name] = spec;
}

}  // namespace

FailpointHandle::FailpointHandle(const char* name) {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  LoadEnvSpecsLocked(r);
  auto it = r.points.find(name);
  if (it == r.points.end()) {
    auto* state = new FailpointState;
    state->name = name;
    state->obs_hits = &obs::GetCounter(std::string("failpoint.hit.") + name);
    state->obs_fires =
        &obs::GetCounter(std::string("failpoint.fired.") + name);
    it = r.points.emplace(name, state).first;
    auto pending = r.pending.find(name);
    if (pending != r.pending.end()) {
      Apply(state, pending->second);
      r.pending.erase(pending);
    }
  }
  state_ = it->second;
}

FaultKind FailpointHandle::Check() {
  FailpointState& s = *state_;
  const std::uint64_t hit =
      s.hits.fetch_add(1, std::memory_order_relaxed) + 1;
  s.obs_hits->Add(1);
  const int kind = s.kind.load(std::memory_order_relaxed);
  if (kind == static_cast<int>(FaultKind::kNone)) return FaultKind::kNone;
  const std::uint64_t nth = s.nth.load(std::memory_order_relaxed);
  const bool fire =
      s.sticky.load(std::memory_order_relaxed) ? hit >= nth : hit == nth;
  if (!fire) return FaultKind::kNone;
  s.fires.fetch_add(1, std::memory_order_relaxed);
  s.obs_fires->Add(1);
  return static_cast<FaultKind>(kind);
}

const std::string& FailpointHandle::name() const { return state_->name; }

bool ArmFailpointsFromSpec(const std::string& spec, std::string* error) {
  std::vector<std::pair<std::string, ArmedSpec>> parsed;
  std::string local_error;
  if (error == nullptr) error = &local_error;
  if (!ParseSpec(spec, &parsed, error)) return false;
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  // Validate every name before arming anything: a spec either applies
  // fully or not at all.
  for (const auto& [name, armed] : parsed) {
    if (r.points.find(name) == r.points.end()) {
      *error = "unknown failpoint '" + name + "' (see RegisteredFailpoints)";
      return false;
    }
  }
  for (const auto& [name, armed] : parsed) Apply(r.points[name], armed);
  return true;
}

bool ArmFailpoint(const std::string& name, FaultKind kind, std::uint64_t nth,
                  bool sticky) {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.points.find(name);
  if (it == r.points.end()) return false;
  Apply(it->second, ArmedSpec{kind, nth, sticky});
  return true;
}

void DisarmAllFailpoints() {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, state] : r.points) {
    state->kind.store(static_cast<int>(FaultKind::kNone),
                      std::memory_order_relaxed);
  }
  r.pending.clear();
}

void ResetFailpointCounters() {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  for (auto& [name, state] : r.points) {
    state->hits.store(0, std::memory_order_relaxed);
    state->fires.store(0, std::memory_order_relaxed);
  }
}

std::vector<FailpointInfo> SnapshotFailpoints() {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<FailpointInfo> out;
  out.reserve(r.points.size());
  for (const auto& [name, state] : r.points) {
    FailpointInfo info;
    info.name = name;
    info.hits = state->hits.load(std::memory_order_relaxed);
    info.fires = state->fires.load(std::memory_order_relaxed);
    info.armed = state->kind.load(std::memory_order_relaxed) !=
                 static_cast<int>(FaultKind::kNone);
    out.push_back(std::move(info));
  }
  return out;  // std::map iteration is already name-sorted
}

std::vector<std::string> RegisteredFailpoints() {
  std::vector<std::string> names;
  for (FailpointInfo& info : SnapshotFailpoints()) {
    names.push_back(std::move(info.name));
  }
  return names;
}

std::vector<std::string> PendingFailpointSpecs() {
  Registry& r = Registry::Get();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<std::string> names;
  for (const auto& [name, spec] : r.pending) names.push_back(name);
  return names;
}

}  // namespace gorder::util

#endif  // GORDER_FAILPOINTS_ENABLED
