// rar_perfbench: one fixed-work benchmark for the served stack.
//
//   rar_perfbench --workload <mediate|serve_stream|serve_durable|serve_tcp>
//                 --seed <n> --seconds <n> --trace <0|1>
//                 --data-dir <dir> [--trace-out <file>]
//
// Prints the exact work counters on one line, then the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics untraced and the per-layer metrics traced.
// Exits 1 when an output check fails, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::RunArgs* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--data-dir") {
      args->data_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::fprintf(stderr, "flag %s needs a value\n", argv[argc - 1]);
    return false;
  }
  return !args->workload.empty() && !args->data_dir.empty() &&
         args->seconds >= 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rar_perfbench --workload <name> --seed <n> "
                 "--seconds <n> --trace <0|1> --data-dir <dir> "
                 "[--trace-out <file>]\n");
    return 2;
  }

  WorkloadResult r;
  if (args.workload == "mediate") {
    r = RunMediate(args);
  } else if (args.workload == "serve_stream") {
    r = RunServeStream(args);
  } else if (args.workload == "serve_durable") {
    r = RunServeDurable(args);
  } else if (args.workload == "serve_tcp") {
    r = RunServeTcp(args);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  for (const std::string& e : r.failures) {
    std::fprintf(stderr, "failed op: %s\n", e.c_str());
  }
  for (size_t i = 0; i < r.errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "check failed: %s\n", r.errors[i].c_str());
  }
  if (r.errors.size() > 20) {
    std::fprintf(stderr, "... %zu check failures in all\n", r.errors.size());
  }
  std::string work = "{\"workload\": \"" + args.workload + "\", \"seed\": " +
                     std::to_string(args.seed) +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed);
  for (const auto& [name, value] : r.work) {
    work += ", \"" + name + "\": " + std::to_string(value);
  }
  std::printf("%s}\n", work.c_str());
  PrintResult(r.correct, r.attempted, r.failed, r.metrics);
  return r.correct ? 0 : 1;
}
