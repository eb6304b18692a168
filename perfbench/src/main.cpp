// sts_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--trace-out <dir>]
//
// Runs one workload for about <s> seconds of whole rounds over inputs made
// from <n>, checks every output, and prints one JSON object as the last line
// of stdout: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
// the end-to-end metrics; --trace 1 gives the per-layer metrics from spans
// recorded around the calls into each layer (written to <dir> when given).
// Exits 0 only when every check passed.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "sts_perfbench: %s\nusage: sts_perfbench --workload "
               "cold_large|serve_mix|delta_stream|wire --seed N --seconds S --trace 0|1 "
               "[--trace-out DIR]\n",
               problem);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  perfbench::Report (*run)(const perfbench::Options&) = nullptr;
  if (options.workload == "cold_large") run = perfbench::run_cold_large;
  else if (options.workload == "serve_mix") run = perfbench::run_serve_mix;
  else if (options.workload == "delta_stream") run = perfbench::run_delta_stream;
  else if (options.workload == "wire") run = perfbench::run_wire;
  else usage(("unknown workload " + options.workload).c_str());

  try {
    const perfbench::Report report = run(options);
    std::printf("%s\n", report.to_json().c_str());
    std::fflush(stdout);
    return report.passed() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sts_perfbench: %s: %s\n", options.workload.c_str(), e.what());
    return 1;
  }
}
