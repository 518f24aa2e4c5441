// Benchmark harness: runs one workload in this process and prints its
// metrics as text lines (see workloads.hpp); run.py builds this binary and
// turns the lines into the benchmark's JSON result.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --pinned perfbench/pinned.json [--tiny] [--git-sha SHA]
//   perfbench_harness --pin     (prints a fresh pinned.json on stdout)

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

std::string bits_hex(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

}  // namespace perfbench

namespace {

using perfbench::Clock;

// Fixed reference kernel, timed before and after every run so a slow run
// can be told apart from a slow host phase; it never normalizes a metric.
// Ordered-map churn (allocation, pointer chasing, branches) tracks the
// host's slow phases on the SPICE and serve code far better than a tight
// arithmetic loop does.
double host_probe_ms() {
  std::vector<double> samples;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point t0 = Clock::now();
    std::map<std::uint64_t, double> m;
    std::uint64_t x = 1;
    for (int i = 0; i < 60000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      m[x >> 40] += 1.0;
      if (m.size() > 4000) m.erase(m.begin());
    }
    for (const auto& kv : m) sink += kv.second;
    samples.push_back(perfbench::seconds_since(t0) * 1e3);
  }
  if (sink == 42.0) std::printf("info probe sink %g\n", sink);
  return perfbench::median(samples);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N --seconds S "
               "--trace 0|1 --pinned FILE [--tiny] [--git-sha SHA]\n"
               "       perfbench_harness --pin\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  std::string pinned_path;
  std::string git_sha = "unknown";
  bool pin = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "--workload") {
        cfg.workload = value();
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value());
      } else if (arg == "--trace") {
        cfg.trace = value() == "1";
      } else if (arg == "--pinned") {
        pinned_path = value();
      } else if (arg == "--git-sha") {
        git_sha = value();
      } else if (arg == "--tiny") {
        cfg.tiny = true;
      } else if (arg == "--pin") {
        pin = true;
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return usage();
  }

  try {
    if (pin) {
      ftl::serve::JsonValue out = ftl::serve::JsonValue::object();
      out.set("paper_pipeline", perfbench::pin_paper_pipeline());
      out.set("circuit_study", perfbench::pin_circuit_study());
      std::printf("%s\n", out.dump().c_str());
      return 0;
    }
    if (cfg.workload.empty() || pinned_path.empty() || !(cfg.seconds > 0.0)) {
      return usage();
    }
    std::ifstream in(pinned_path);
    if (!in) throw std::runtime_error("cannot read " + pinned_path);
    std::stringstream text;
    text << in.rdbuf();
    cfg.pinned = ftl::serve::JsonValue::parse(text.str());

    const double probe_before = host_probe_ms();
    perfbench::Result result;
    if (cfg.workload == "paper-pipeline") {
      result = perfbench::run_paper_pipeline(cfg);
    } else if (cfg.workload == "circuit-study") {
      result = perfbench::run_circuit_study(cfg);
    } else if (cfg.workload == "serve-mix") {
      result = perfbench::run_serve_mix(cfg);
    } else if (cfg.workload == "serve-hot") {
      result = perfbench::run_serve_hot(cfg);
    } else {
      std::fprintf(stderr, "perfbench_harness: unknown workload '%s'\n",
                   cfg.workload.c_str());
      return 2;
    }
    const double probe_after = host_probe_ms();

    if (result.attempted < 1) throw std::runtime_error("no operation attempted");
    const double ok = static_cast<double>(result.attempted - result.failed) /
                      static_cast<double>(result.attempted);
    if (cfg.trace) {
      result.set("host.probe_ms", 0.5 * (probe_before + probe_after), "ms");
    } else {
      result.set("ok_frac", ok, "fraction");
      result.set("peak_rss_mb", peak_rss_mb(), "MB");
    }

    std::printf("provenance nproc %ld\n", sysconf(_SC_NPROCESSORS_ONLN));
    std::printf("provenance compiler %s\n", PERFBENCH_COMPILER);
    std::printf("provenance build_type %s\n", PERFBENCH_BUILD_TYPE);
    std::printf("provenance git_sha %s\n", git_sha.c_str());
    std::printf("provenance host_probe_ms_before %.4f\n", probe_before);
    std::printf("provenance host_probe_ms_after %.4f\n", probe_after);
    for (const std::string& line : result.info) {
      std::printf("info %s\n", line.c_str());
    }
    for (const auto& [name, metric] : result.metrics) {
      std::printf("metric %s %.17g %s\n", name.c_str(), metric.first,
                  metric.second.c_str());
    }
    std::printf("count %lld %lld\n", static_cast<long long>(result.attempted),
                static_cast<long long>(result.failed));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
