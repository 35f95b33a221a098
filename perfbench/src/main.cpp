// Benchmark driver: runs one workload and prints the result line.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--rounds <n>] [--work-dir <path>]
//
// Run it through perfbench/run.py, which builds it first. The last line of
// stdout is the JSON result; diagnostics go to stderr. Exit status is 0 only
// when every correctness check passed.

#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i];
      const std::string value = argv[i + 1];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = value != "0";
      } else if (flag == "--rounds") {
        options.rounds = std::stoull(value);
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
        return 2;
      }
    }
    if (argc % 2 == 0) {
      std::fprintf(stderr, "perfbench: flag %s has no value\n", argv[argc - 1]);
      return 2;
    }
    const perfbench::Result result = perfbench::run_workload(options);
    for (const auto& [name, count] : result.counts) {
      std::fprintf(stderr, "perfbench: count %s = %llu\n", name.c_str(),
                   static_cast<unsigned long long>(count));
    }
    for (const std::string& error : result.errors) {
      std::fprintf(stderr, "perfbench: FAILED %s\n", error.c_str());
    }
    std::printf("%s\n", result.json().c_str());
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
