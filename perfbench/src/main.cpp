// perfbench: the repository benchmark binary. run.py builds it and runs
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir> [--trace-out <file>] [--git-sha <sha>]
//
// which prints notes (machine, tails, derived numbers) and, as its last
// line, {"correct", "attempted", "failed", "metrics"}. It exits 1 when
// any operation or output check failed. `perfbench --daemon <pack>` is
// the gorderd child the serve phase starts.

#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

#include "common.h"
#include "loadgen.h"
#include "obs/json.h"
#include "pipeline.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "[--trace-out <file>] [--git-sha <sha>]\n",
               message);
  return 2;
}

bool ParseUint(const std::string& s, unsigned long long* out) {
  if (s.empty() || s.size() > 19) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

std::string SelfExe() {
  char buf[PATH_MAX];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  return n > 0 ? std::string(buf, static_cast<std::size_t>(n)) : "";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--daemon") {
    return perfbench::RunDaemon(argv[2]);
  }
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Usage(("bad argument '" + key + "'").c_str());
    }
    flags[key.substr(2)] = argv[i + 1];
  }
  for (const auto& [key, value] : flags) {
    if (key != "workload" && key != "seed" && key != "seconds" &&
        key != "trace" && key != "work-dir" && key != "trace-out" &&
        key != "git-sha") {
      return Usage(("unknown flag --" + key).c_str());
    }
  }
  const perfbench::WorkloadSpec* spec =
      perfbench::FindWorkload(flags["workload"]);
  unsigned long long seed = 0, seconds = 0, trace = 0;
  if (spec == nullptr) return Usage("unknown --workload");
  if (!ParseUint(flags["seed"], &seed)) return Usage("bad --seed");
  if (!ParseUint(flags["seconds"], &seconds) || seconds < 1 || seconds > 60) {
    return Usage("--seconds must be 1..60");
  }
  if (!ParseUint(flags["trace"], &trace) || trace > 1) {
    return Usage("--trace must be 0 or 1");
  }
  if (flags["work-dir"].empty()) return Usage("--work-dir is required");

  perfbench::RunOptions options;
  options.seed = seed;
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;
  options.work_dir = flags["work-dir"];
  options.self_exe = SelfExe();
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) return Usage(("cannot create --work-dir: " + ec.message()).c_str());

  const std::string git_sha =
      flags["git-sha"].empty() ? "unknown" : flags["git-sha"];
  std::printf("machine: %s\n", perfbench::MachineJson(git_sha).c_str());
  std::printf("workload: %s seed=%llu seconds=%llu trace=%llu\n",
              spec->name.c_str(), seed, seconds, trace);
  std::fflush(stdout);

  perfbench::RunResult result = perfbench::RunPipeline(*spec, options);
  std::filesystem::remove_all(options.work_dir, ec);

  bool trace_written = true;
  if (options.trace && !flags["trace-out"].empty()) {
    std::ofstream f(flags["trace-out"], std::ios::binary | std::ios::trunc);
    f << result.chrome_trace;
    trace_written = static_cast<bool>(f);
  }
  result.outcome.Check(trace_written, "write trace " + flags["trace-out"]);

  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  std::printf("end_to_end: %s\n", result.end_to_end.ToJson().c_str());
  const perfbench::Outcome& outcome = result.outcome;
  const perfbench::MetricSet& metrics =
      options.trace ? result.per_layer : result.end_to_end;
  gorder::obs::JsonWriter json;
  json.BeginObject();
  json.KV("correct", outcome.failed() == 0);
  json.KV("attempted", outcome.attempted());
  json.KV("failed", outcome.failed());
  json.Key("metrics");
  metrics.WriteJson(json);
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return outcome.failed() == 0 ? 0 : 1;
}
