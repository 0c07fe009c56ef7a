// drivefi_perfbench: the campaign benchmark. One process runs one workload
// and prints, as its last stdout line, one JSON object with the keys
// correct, attempted, failed and metrics.
//
//   drivefi_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                     [--root DIR] [--scratch DIR]
//
// --trace 0 reports the end-to-end metrics (no tracing); --trace 1 runs the
// per-layer pass. --root is the repository root (for the scenario files),
// --scratch the directory for stores and the Chrome trace. Exits 0 when
// every output check passed, 1 when one failed or the workload threw, 2 on
// bad arguments, and 3 when the build or the host cannot give honest
// numbers.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: drivefi_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--scratch DIR]\n"
               "workloads: %s\n",
               message, workload_names().c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed wants an integer");
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(args.seconds > 0.0))
        usage("--seconds wants a positive number");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      args.trace = value == "1";
    } else if (arg == "--root") {
      args.root = value;
    } else if (arg == "--scratch") {
      args.scratch = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* workload = find_workload(args.workload);
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());

#ifndef NDEBUG
  std::fprintf(stderr,
               "error: refusing to report numbers from a build without NDEBUG "
               "(build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  const unsigned nproc = std::thread::hardware_concurrency();
  if (nproc == 0 || workload->threads > nproc) {
    std::fprintf(stderr,
                 "error: workload %s wants %u threads but the host has %u\n",
                 workload->name, workload->threads, nproc);
    return 3;
  }
  std::printf("workload %s seed %llu seconds %g trace %d\n", workload->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("build: compiler %s, build type %s, NDEBUG set; host nproc %u; "
              "workload threads %u\n",
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, nproc,
              workload->threads);

  Checks checks;
  std::vector<Metric> metrics;
  try {
    metrics = args.trace ? run_traced(*workload, args, checks)
                         : run_timed(*workload, args, checks);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: workload %s threw: %s\n", workload->name,
                 error.what());
    return 1;
  }
  if (metrics.empty()) checks.record("no measurement completed", 1, 1);

  std::printf("%-32s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value))
      checks.record("finite " + metric.name, 1, 1);
    std::printf("%-32s %18.6f  %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& failure : checks.failures)
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  const std::size_t attempted = std::max<std::size_t>(1, checks.attempted);
  std::printf("failed_frac %.6f (%zu of %zu operations)\n",
              static_cast<double>(checks.failed) / static_cast<double>(attempted),
              checks.failed, attempted);

  const bool correct = checks.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, checks.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  return correct ? 0 : 1;
}
