// bench_compare — perf-trajectory regression gate over BENCH_*.json run
// records. Usage:
//
//   bench_compare [flags] --baseline A --current B
//   bench_compare [flags] A B [C ...]        (positional: snapshots in order)
//
// Each snapshot is a single BENCH_*.json file or a trajectory directory
// written by bench/run_all.sh. With more than two snapshots, adjacent pairs
// are compared in sequence (the trajectory view); the exit status reflects
// the LAST pair — the gate asks "did the newest change regress?".
//
// Flags:
//   --threshold X        relative-delta threshold (default 0.10); a finite
//                        number >= 0, else exit 2
//   --metrics a,b,...    only compare metrics whose key contains a substring
//   --exclude a,b,...    skip metrics whose key contains a substring
//   --force              compare despite hostname/build-type mismatches
//   --stages             surface per-stage pipeline attribution and SLO
//                        keys (stage_* / slo_*) as informational rows —
//                        shown, but never counted as regressions
//   --quality            surface drift/data-quality telemetry keys
//                        (drift_* / quality_*) as informational rows,
//                        same never-gating policy as --stages
//   --json               machine-readable report on stdout
//   --verbose            include unchanged rows in the table
//
// Exit codes: 0 no regression; 1 regression beyond threshold, or a gated
// metric or bench of the baseline missing from the current snapshot; 2
// usage or I/O error; 3 environment mismatch without --force.

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "amperebleed/util/strings.hpp"
#include "bench_records.hpp"

namespace {

using amperebleed::tools::BenchRecord;
using amperebleed::tools::CompareOptions;
using amperebleed::tools::CompareReport;

struct Cli {
  CompareOptions options;
  bool json = false;
  bool verbose = false;
  std::vector<std::string> snapshots;
};

void usage(std::FILE* out) {
  std::fputs(
      "usage: bench_compare [--threshold X] [--metrics a,b] [--exclude a,b]\n"
      "                     [--force] [--stages] [--quality] [--json]\n"
      "                     [--verbose] SNAPSHOT SNAPSHOT [...]\n"
      "       (SNAPSHOT = BENCH_*.json file or run_all.sh trajectory dir;\n"
      "        also accepts --baseline A --current B)\n",
      out);
}

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  for (const auto& part : amperebleed::util::split(csv, ',')) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  std::string baseline;
  std::string current;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(arg + " needs a value");
      }
      return argv[++i];
    };
    if (arg == "--threshold") {
      cli.options.threshold = amperebleed::tools::parse_threshold(next());
    } else if (arg == "--metrics") {
      cli.options.include = split_list(next());
    } else if (arg == "--exclude") {
      cli.options.exclude = split_list(next());
    } else if (arg == "--baseline") {
      baseline = next();
    } else if (arg == "--current") {
      current = next();
    } else if (arg == "--force") {
      cli.options.force = true;
    } else if (arg == "--stages") {
      cli.options.show_stages = true;
    } else if (arg == "--quality") {
      cli.options.show_quality = true;
    } else if (arg == "--json") {
      cli.json = true;
    } else if (arg == "--verbose") {
      cli.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (!arg.empty() && arg[0] == '-') {
      throw std::invalid_argument("unknown flag: " + arg);
    } else {
      cli.snapshots.push_back(arg);
    }
  }
  if (!baseline.empty()) cli.snapshots.insert(cli.snapshots.begin(), baseline);
  if (!current.empty()) cli.snapshots.push_back(current);
  if (cli.snapshots.size() < 2) {
    throw std::invalid_argument("need at least two snapshots to compare");
  }
  return cli;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  try {
    cli = parse_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    usage(stderr);
    return 2;
  }

  try {
    std::vector<std::vector<BenchRecord>> snapshots;
    snapshots.reserve(cli.snapshots.size());
    for (const auto& path : cli.snapshots) {
      snapshots.push_back(amperebleed::tools::load_records(path));
    }

    CompareReport last;
    for (std::size_t i = 0; i + 1 < snapshots.size(); ++i) {
      last = amperebleed::tools::compare_records(
          snapshots[i], snapshots[i + 1], cli.options);
      if (cli.json) {
        if (i + 2 == snapshots.size()) {
          std::fputs((last.to_json().dump(2) + "\n").c_str(), stdout);
        }
      } else {
        std::printf("=== %s -> %s ===\n", cli.snapshots[i].c_str(),
                    cli.snapshots[i + 1].c_str());
        std::fputs(last.to_table(cli.verbose).c_str(), stdout);
        std::putchar('\n');
      }
    }

    if (last.env_mismatch && !cli.options.force) {
      std::fprintf(stderr,
                   "bench_compare: environment mismatch (see warnings); "
                   "rerun with --force to compare anyway\n");
      return 3;
    }
    if (last.regressions() > 0) {
      std::fprintf(stderr, "bench_compare: %zu regression(s) beyond "
                           "threshold %.3g\n",
                   last.regressions(), cli.options.threshold);
    }
    if (!last.missing.empty()) {
      std::fprintf(stderr, "bench_compare: %zu gated metric(s) or bench(es) "
                           "missing from the current snapshot\n",
                   last.missing.size());
    }
    return last.passed() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }
}
