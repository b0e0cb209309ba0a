#ifndef GORDER_UTIL_FAILPOINT_H_
#define GORDER_UTIL_FAILPOINT_H_

/// Deterministic fault injection for IO/syscall error paths
/// (DESIGN.md §14).
///
/// A *failpoint* is a named site in fallible code (an fopen, an fwrite,
/// an fsync, an allocation) that a test can arm to fail on the Nth hit
/// with a chosen failure kind. Failpoints are a build-time feature:
/// release builds (the default) compile every macro below to nothing —
/// no registry, no counters, no strings in the binary — while
/// `-DGORDER_FAILPOINTS=ON` builds carry the full framework, armed via
/// the `GORDER_FAILPOINTS` environment variable or the `--failpoints`
/// flag with specs like
///
///   store.pack_write.write=err@3;graph.read_edgelist.alloc=oom@1
///
/// Grammar: `name=kind[@N[+]]`, separated by `;` or `,`. `kind` is one
/// of `err`, `short`, `enospc`, `oom`; `@N` (default 1, counted from
/// the moment of arming) fires on exactly the Nth hit, `@N+` on every
/// hit from the Nth onward.
///
/// Usage in instrumented code:
///
///   GORDER_FAILPOINT_DEFINE(fp_pack_open, "store.pack_write.open");
///   ...
///   if (GORDER_FAILPOINT(fp_pack_open) != util::FaultKind::kNone) {
///     return IoResult::Error("cannot open " + tmp);  // injected
///   }
///   FilePtr f(std::fopen(tmp.c_str(), "wb"));
///
/// `GORDER_FAILPOINT_DEFINE` lives at namespace scope in the .cpp so
/// every point registers during static initialisation — the fault-sweep
/// test enumerates the registry and fails if any registered point is
/// never reached, flagging dead error-handling code. Hit and fire
/// counts are kept in the registry (authoritative, unaffected by
/// GORDER_OBS=off) and mirrored into obs counters
/// (`failpoint.hit.<name>` / `failpoint.fired.<name>`) so run reports
/// show exactly which points fired.

#include <cstddef>
#include <string>

namespace gorder::util {

/// What an armed failpoint injects. Sites with a single failure mode
/// (open, mmap, alloc, rename) treat every kind as their one failure;
/// transfer sites (read/write) distinguish short transfers and errno.
enum class FaultKind : int {
  kNone = 0,
  kError,   // operation fails outright (errno EIO)
  kShort,   // read/write transfers fewer bytes than requested
  kEnospc,  // write fails with errno ENOSPC
  kOom,     // allocation failure (std::bad_alloc)
};

/// Arms fault-injection points from a --failpoints=<spec> flag value
/// (empty = no-op). A bad spec (syntax error, unknown point name) exits
/// 2, and so does any spec in a build without -DGORDER_FAILPOINTS=ON,
/// so a fault-injection run can never silently execute fault-free.
void ArmFailpointsFlag(const std::string& spec);

}  // namespace gorder::util

#if defined(GORDER_FAILPOINTS_ENABLED)

#include <cerrno>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

namespace gorder::util {

namespace internal {
struct FailpointState;
}  // namespace internal

/// One registered failpoint site. Constructed at namespace scope via
/// GORDER_FAILPOINT_DEFINE, so registration happens at static init.
/// Two handles with the same name share one registry entry.
class FailpointHandle {
 public:
  explicit FailpointHandle(const char* name);
  FailpointHandle(const FailpointHandle&) = delete;
  FailpointHandle& operator=(const FailpointHandle&) = delete;

  /// Counts one hit and returns the armed kind if this hit fires,
  /// kNone otherwise. Cheap: two relaxed atomics when disarmed.
  FaultKind Check();

  const std::string& name() const;

 private:
  internal::FailpointState* state_;
};

/// Arms the points named in `spec` (grammar above). Every named point
/// must already be registered — unknown names are an error, so typos in
/// test specs fail loudly. Arming resets the point's hit counter, so
/// `@N` is counted from this call. Returns false and fills `*error` on
/// a malformed spec (nothing is armed then).
bool ArmFailpointsFromSpec(const std::string& spec, std::string* error);

/// Arms one point directly. `nth` is 1-based; `sticky` fires on every
/// hit >= nth instead of exactly the nth. Returns false if `name` is
/// not registered.
bool ArmFailpoint(const std::string& name, FaultKind kind,
                  std::uint64_t nth = 1, bool sticky = false);

/// Disarms every point (hit/fire counters are left intact).
void DisarmAllFailpoints();

/// Zeroes every point's hit and fire counters.
void ResetFailpointCounters();

struct FailpointInfo {
  std::string name;
  std::uint64_t hits = 0;   // times the site was evaluated
  std::uint64_t fires = 0;  // times a fault was injected
  bool armed = false;
};

/// Every registered point with its counters, sorted by name.
std::vector<FailpointInfo> SnapshotFailpoints();

/// Names of every registered point, sorted.
std::vector<std::string> RegisteredFailpoints();

/// Specs from the GORDER_FAILPOINTS environment variable (or an
/// ArmFailpointsFromSpec call made before the process finished static
/// init) that have not matched any registered point yet. Non-empty
/// after startup means a typo'd or compiled-out point name.
std::vector<std::string> PendingFailpointSpecs();

/// Applies an injected fault to a transfer-style result (fread/fwrite
/// item or byte counts). `want` is the requested count, `got` the real
/// call's result; returns `got` when nothing fires, otherwise a count
/// strictly below `want` with errno set per kind.
inline std::size_t FaultedTransfer(FailpointHandle& fp, std::size_t want,
                                   std::size_t got) {
  switch (fp.Check()) {
    case FaultKind::kNone:
      return got;
    case FaultKind::kShort:
      return want / 2;
    case FaultKind::kEnospc:
      errno = ENOSPC;
      return want / 2;
    case FaultKind::kOom:
      errno = ENOMEM;
      return 0;
    case FaultKind::kError:
    default:
      errno = EIO;
      return 0;
  }
}

/// Applies an injected fault to a boolean success value whose real
/// operation has already run (fsync, fclose): any armed kind turns
/// success into failure with errno set.
inline bool FaultedOk(FailpointHandle& fp, bool real) {
  switch (fp.Check()) {
    case FaultKind::kNone:
      return real;
    case FaultKind::kEnospc:
      errno = ENOSPC;
      return false;
    default:
      errno = EIO;
      return false;
  }
}

}  // namespace gorder::util

/// Defines a failpoint handle at namespace scope (registers at static
/// init).
#define GORDER_FAILPOINT_DEFINE(var, name) \
  static ::gorder::util::FailpointHandle var(name)

/// Evaluates the failpoint: counts a hit, yields the armed FaultKind
/// (kNone when disarmed or not firing yet).
#define GORDER_FAILPOINT(var) ((var).Check())

/// Transfer-style wrapper: `expr` is the real fread/fwrite result for a
/// requested count of `want`; an injected fault shrinks it below `want`.
#define GORDER_FAULT_IO(var, want, expr) \
  (::gorder::util::FaultedTransfer((var), (want), (expr)))

/// Boolean wrapper: `expr` (the real operation, always evaluated)
/// is forced to false when the point fires.
#define GORDER_FAULT_OK(var, expr) (::gorder::util::FaultedOk((var), (expr)))

/// Allocation wrapper: throws std::bad_alloc when the point fires.
/// Place inside the try block whose catch handles real OOM.
#define GORDER_FAULT_ALLOC(var)                                            \
  do {                                                                     \
    if ((var).Check() != ::gorder::util::FaultKind::kNone) throw std::bad_alloc(); \
  } while (0)

#else  // !GORDER_FAILPOINTS_ENABLED

/// Release builds: every macro compiles to nothing — no registry, no
/// handle objects, no failpoint name strings in the binary. The `var`
/// token is never expanded, so instrumented TUs carry zero code.
#define GORDER_FAILPOINT_DEFINE(var, name) \
  static_assert(true, "failpoints compiled out")
#define GORDER_FAILPOINT(var) (::gorder::util::FaultKind::kNone)
#define GORDER_FAULT_IO(var, want, expr) (expr)
#define GORDER_FAULT_OK(var, expr) (expr)
#define GORDER_FAULT_ALLOC(var) \
  do {                          \
  } while (0)

#endif  // GORDER_FAILPOINTS_ENABLED

#endif  // GORDER_UTIL_FAILPOINT_H_
