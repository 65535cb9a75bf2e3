// livebench — the repository's end-to-end benchmark.
//
//   livebench --workload udp_steady|inproc_churn|sim_push_10k --seed N
//             --seconds S --trace 0|1 [--git-sha SHA] [--out-dir DIR]
//             [--canary drop-pull-responses]
//
// Prints a text report (metrics with units and sample counts, gates,
// failures against attempts, provenance) and, as its last line, one JSON
// object holding every metric. Exits 1 when a correctness gate fails and 2
// on bad arguments. livebench/run.py builds this binary and selects the
// metrics BENCHMARK.json names.
#include <sched.h>

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>

#include "workload.hpp"

namespace {

using livebench::Options;
using livebench::Report;

int usage(const std::string& problem) {
  std::cerr << "livebench: " << problem << "\n"
            << "usage: livebench --workload udp_steady|inproc_churn|sim_push_10k"
               " --seed N --seconds S --trace 0|1 [--git-sha SHA]"
               " [--out-dir DIR] [--canary drop-pull-responses]\n";
  return 2;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

unsigned usable_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--git-sha") {
        git_sha = value;
      } else if (flag == "--out-dir") {
        options.out_dir = value;
      } else if (flag == "--canary") {
        if (value != "drop-pull-responses") return usage("unknown canary " + value);
        options.canary = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!options.canary.empty() && options.workload != "inproc_churn") {
    return usage("--canary applies to inproc_churn only");
  }
  if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
    return usage("--seconds must be in (0, 120]");
  }

  // Every workload runs on the calling thread (the simulator at one shard).
  constexpr unsigned kThreadsUsed = 1;
  const unsigned usable = usable_threads();
  if (kThreadsUsed > usable) {
    std::cerr << "livebench: workload needs " << kThreadsUsed
              << " threads but only " << usable << " are usable\n";
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);

  Report report(options.workload);
  if (options.workload == "udp_steady") {
    report = livebench::run_udp_steady(options);
  } else if (options.workload == "inproc_churn") {
    report = livebench::run_inproc_churn(options);
  } else if (options.workload == "sim_push_10k") {
    report = livebench::run_sim_push(options);
  } else {
    return usage("unknown workload " + options.workload);
  }

  report.info("git_sha", git_sha);
  report.info("cpu_model", cpu_model());
#ifdef LIVEBENCH_BUILD_TYPE
  report.info("build_type", LIVEBENCH_BUILD_TYPE);
#endif
  report.info("compiler", __VERSION__);
  report.info("seed", std::to_string(options.seed));
  report.info("seconds", livebench::format_number(options.seconds));
  report.info("threads", "used " + std::to_string(kThreadsUsed) + " of " +
                             std::to_string(usable) + " usable");
  report.info("trace", options.trace ? "1" : "0");
  if (!options.canary.empty()) report.info("canary", options.canary);
  report.complete(livebench::end_to_end_metrics());
  report.complete(livebench::per_layer_metrics());
  report.print(std::cout);
  std::cout.flush();
  return report.correct() ? 0 : 1;
}
