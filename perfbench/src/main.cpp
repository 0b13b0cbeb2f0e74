// The benchmark program: runs one workload and prints its metrics.
//
//   perfbench --workload <steady_design|mc_batch|rtm_trace|spice_dc>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// a fixed amount of work twice, untraced and traced, and reports the
// per-layer metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Lines before it carry the environment stamp, the timing summary and, in
// traced runs, the self-time table per span.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>

#include "harness.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_CXX_COMPILER
#define PERFBENCH_CXX_COMPILER "unknown"
#endif

namespace {

using perfbench::Args;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <steady_design|mc_batch|rtm_trace|"
               "spice_dc> --seed <n> --seconds <s> --trace <0|1> [--trace-file <path>]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(key));
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (key == "--trace-file") {
        a.trace_file = value;
      } else {
        usage("unknown option " + std::string(key));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(key) + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    if (static_cast<unsigned char>(c) >= 0x20) std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  // Environment stamp, one JSON line, ahead of any measurement.
  std::printf("env: {\"build_type\": ");
  print_json_string(PERFBENCH_BUILD_TYPE);
  std::printf(", \"compiler\": ");
  print_json_string(PERFBENCH_CXX_COMPILER);
  std::printf(", \"cpu\": ");
  print_json_string(cpu_model());
  std::printf(", \"nproc\": %u, \"workload\": ", std::thread::hardware_concurrency());
  print_json_string(args.workload);
  std::printf(", \"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
#ifndef NDEBUG
  const bool optimized = false;
#else
  const bool optimized = std::string_view(PERFBENCH_BUILD_TYPE) == "Release";
#endif
  if (!optimized) {
    std::fprintf(stderr, "perfbench: refusing to report numbers from a non-Release build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::fflush(stdout);

  perfbench::RunResult result;
  try {
    if (args.workload == "steady_design") {
      result = perfbench::run_steady_design(args);
    } else if (args.workload == "mc_batch") {
      result = perfbench::run_mc_batch(args);
    } else if (args.workload == "rtm_trace") {
      result = perfbench::run_rtm_trace(args);
    } else if (args.workload == "spice_dc") {
      result = perfbench::run_spice_dc(args);
    } else {
      usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              result.correct ? "true" : "false", result.attempted, result.failed);
  bool first = true;
  for (const auto& [name, entry] : result.metrics.entries()) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    print_json_string(name);
    std::printf(": {\"value\": %.17g, \"unit\": ", entry.first);
    print_json_string(entry.second);
    std::printf("}");
  }
  std::printf("}}\n");
  return 0;
}
