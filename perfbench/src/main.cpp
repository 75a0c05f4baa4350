//===- perfbench/src/main.cpp - Benchmark entry point ----------------------===//
//
// Part of the rdgc project. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload paper|alloc|server --seed N --seconds S --trace 0|1
//           [--setup-only] [--launch-ns NS] [--commit C] [--source-digest D]
//           [--trace-dir DIR]
// perfbench --list-metrics
//
// Runs one workload and prints a report line (environment, every metric
// with its sample count, failures, workload detail) followed by the result
// line: {"correct", "attempted", "failed", "metrics"}, where metrics are the
// end-to-end ones untraced and the per-layer ones with --trace 1. Exits 1
// when any correctness check failed, 2 on a usage or configuration error.
// Normally launched through run.py, which builds it first.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sched.h>
#include <string>
#include <unistd.h>

extern char **environ;

using namespace perfbench;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool SanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool SanitizedBuild = true;
#else
constexpr bool SanitizedBuild = false;
#endif
#else
constexpr bool SanitizedBuild = false;
#endif

#ifdef NDEBUG
constexpr bool AssertsOn = false;
#else
constexpr bool AssertsOn = true;
#endif

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload paper|alloc|server "
               "--seed N --seconds S --trace 0|1\n",
               Why);
  std::exit(2);
}

/// The RDGC_* variables the library reads would silently change what is
/// measured; the benchmark pins every knob itself instead.
std::string inheritedKnob() {
  for (char **E = environ; E && *E; ++E)
    if (std::strncmp(*E, "RDGC_", 5) == 0)
      return std::string(*E, std::strcspn(*E, "="));
  return "";
}

std::string affinityJson() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return "null";
  std::string Out = "[";
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Set))
      Out.append(Out.size() > 1 ? "," : "").append(std::to_string(C));
  return Out + "]";
}

std::string metricsReport(const std::vector<Metric> &Ms) {
  std::string Out = "[";
  for (const Metric &M : Ms)
    Out += std::string(Out.size() > 1 ? "," : "") +
           "{\"name\":" + jsonString(M.Name) +
           ",\"value\":" + jsonNumber(M.Value) +
           ",\"unit\":" + jsonString(M.Unit) +
           ",\"n\":" + std::to_string(M.N) + "}";
  return Out + "]";
}

/// The result line's metrics: those of \p Ms named in \p Names, in the
/// order of \p Names.
std::string
metricsResult(const std::vector<Metric> &Ms,
              const std::vector<std::pair<std::string, std::string>> &Names) {
  std::string Out = "{";
  for (const auto &[Name, Unit] : Names)
    for (const Metric &M : Ms)
      if (M.Name == Name)
        Out += std::string(Out.size() > 1 ? "," : "") + jsonString(M.Name) +
               ":{\"value\":" + jsonNumber(M.Value) +
               ",\"unit\":" + jsonString(M.Unit) + "}";
  return Out + "}";
}

/// This process's peak resident set. VmHWM, not getrusage's ru_maxrss:
/// the latter carries over the launcher's peak across fork and exec.
std::optional<double> peakRssMb() {
  std::unique_ptr<std::FILE, int (*)(std::FILE *)> F(
      std::fopen("/proc/self/status", "r"), &std::fclose);
  char Line[256];
  while (F && std::fgets(Line, sizeof(Line), F.get())) {
    unsigned long long Kib = 0;
    if (std::sscanf(Line, "VmHWM: %llu kB", &Kib) == 1)
      return static_cast<double>(Kib) / 1024.0;
  }
  return std::nullopt;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  O.MainStartNs = nowNs();
  bool ListMetrics = false;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value after " + A).c_str());
      return Argv[++I];
    };
    try {
      if (A == "--workload") {
        O.Workload = Next();
        HaveWorkload = true;
      } else if (A == "--seed") {
        O.Seed = std::stoull(Next());
        HaveSeed = true;
      } else if (A == "--seconds") {
        O.Seconds = std::stod(Next());
        HaveSeconds = true;
      } else if (A == "--trace") {
        std::string V = Next();
        if (V != "0" && V != "1")
          usage("--trace takes 0 or 1");
        O.Trace = V == "1";
      } else if (A == "--setup-only") {
        O.SetupOnly = true;
      } else if (A == "--launch-ns") {
        O.LaunchEpochNs = std::stoll(Next());
      } else if (A == "--commit") {
        O.Commit = Next();
      } else if (A == "--source-digest") {
        O.SourceDigest = Next();
      } else if (A == "--trace-dir") {
        O.TraceDir = Next();
      } else if (A == "--list-metrics") {
        ListMetrics = true;
      } else {
        usage(("unknown argument " + A).c_str());
      }
    } catch (const std::exception &) {
      usage(("malformed value for " + A).c_str());
    }
  }

  if (ListMetrics) {
    auto List = [](const std::vector<std::pair<std::string, std::string>> &L) {
      std::string Out = "[";
      for (const auto &[Name, Unit] : L)
        Out += std::string(Out.size() > 1 ? "," : "") + "[" +
               jsonString(Name) + "," + jsonString(Unit) + "]";
      return Out + "]";
    };
    std::printf("{\"end_to_end\":%s,\"per_layer\":%s}\n",
                List(endToEndMetricNames()).c_str(),
                List(perLayerMetricNames()).c_str());
    return 0;
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds)
    usage("--workload, --seed and --seconds are required");
  if (!(O.Seconds > 0) || O.Seconds > 600)
    usage("--seconds must be in (0, 600]");
  if (std::string Knob = inheritedKnob(); !Knob.empty())
    usage(("refusing to run with " + Knob +
           " set: the benchmark pins every RDGC knob itself")
              .c_str());
  if (AssertsOn || SanitizedBuild)
    usage("refusing to measure a build with assertions or sanitizers");

  RunResult R;
  if (O.Workload == "paper")
    R = runPaper(O);
  else if (O.Workload == "alloc")
    R = runAlloc(O);
  else if (O.Workload == "server")
    R = runServer(O);
  else
    usage(("unknown workload " + O.Workload).c_str());

  if (O.SetupOnly) {
    std::printf("{\"setup_s\":%s}\n", jsonNumber(R.SetupSeconds).c_str());
    return R.Book.failed() ? 2 : 0;
  }

  std::vector<Metric> E2E = R.EndToEnd;
  E2E.insert(E2E.begin(), Metric{"setup_s", R.SetupSeconds, "s", 1});
  E2E.push_back(Metric{"peak_rss_mb", peakRssMb(), "MB", 1});
  const double ErrorRate =
      R.Book.attempted()
          ? static_cast<double>(R.Book.failed()) / R.Book.attempted()
          : 1.0;
  const bool Correct = R.Book.failed() == 0 && R.Book.attempted() > 0;

  std::string Failures = "[";
  for (const std::string &Why : R.Book.reasons())
    Failures.append(Failures.size() > 1 ? "," : "").append(jsonString(Why));
  Failures += "]";
  std::printf(
      "perfbench report {\"workload\":%s,\"seed\":%llu,\"seconds\":%s,"
      "\"trace\":%s,\"env\":{\"nproc\":%ld,\"affinity\":%s,\"compiler\":%s,"
      "\"build_type\":%s,\"commit\":%s,\"source_digest\":%s},"
      "\"error_rate\":%s,\"failures\":%s,\"end_to_end\":%s,\"per_layer\":%s,"
      "\"not_measured\":[\"tlab_refills\",\"heap_lock_wait\","
      "\"time_to_safepoint\"],\"detail\":%s}\n",
      jsonString(O.Workload).c_str(),
      static_cast<unsigned long long>(O.Seed), jsonNumber(O.Seconds).c_str(),
      O.Trace ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN),
      affinityJson().c_str(), jsonString(__VERSION__).c_str(),
      jsonString(PERFBENCH_BUILD_TYPE).c_str(), jsonString(O.Commit).c_str(),
      jsonString(O.SourceDigest).c_str(), jsonNumber(ErrorRate).c_str(),
      Failures.c_str(), metricsReport(E2E).c_str(),
      metricsReport(R.PerLayer).c_str(), R.DetailJson.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Book.attempted()),
              static_cast<unsigned long long>(R.Book.failed()),
              (O.Trace ? metricsResult(R.PerLayer, perLayerMetricNames())
                       : metricsResult(E2E, endToEndMetricNames()))
                  .c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
