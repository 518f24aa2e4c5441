#pragma once
// Shared plumbing of the benchmark harness: run configuration, the result
// record every workload fills, and small timing/statistics helpers.
//
// The harness reports through plain text lines on stdout, which run.py
// turns into the benchmark's JSON result:
//   metric <name> <value> <unit>
//   count <attempted> <failed>
//   info <free text>            (provenance, sample counts, check failures)

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ftl/serve/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed window
  bool trace = false;     ///< per-layer run instead of the end-to-end run
  bool tiny = false;      ///< smallest inputs (the benchmark's own tests)
  ftl::serve::JsonValue pinned;  ///< pinned.json: reference outputs
};

/// What one workload run reports. `attempted`/`failed` count operations of
/// the measured run; an operation fails when it errors or its output check
/// does not pass.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::vector<std::string> info;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Counts one operation; a failed check is recorded with its reason.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (info.size() < 50) info.push_back("check failed: " + what);
    }
  }
};

/// Linearly interpolated percentile `p` in [0, 100]; 0 for no samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// splitmix64: derives independent streams from the workload seed.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Bit pattern of a double as hex, for bit-for-bit pinned comparisons.
std::string bits_hex(double v);

Result run_paper_pipeline(const Config& cfg);
Result run_circuit_study(const Config& cfg);
Result run_serve_mix(const Config& cfg);
Result run_serve_hot(const Config& cfg);

/// Reference outputs for pinned.json (harness --pin).
ftl::serve::JsonValue pin_paper_pipeline();
ftl::serve::JsonValue pin_circuit_study();

}  // namespace perfbench
