// circuit-study: the §V circuit study, single-threaded, as repeated rounds
// of two unit kinds on two gates (the paper's XOR3 3x3 lattice and the
// Altun-Riedel MAJ3 lattice):
//   - Monte-Carlo yield units: bridge::monte_carlo_yield on the batched
//     engine (multi-lane DC Newton through spice::BatchSolver);
//   - gate characterization units: bridge::measure_resistor_gate (scalar
//     transient Newton).
// A round runs each gate's Monte-Carlo units over a fixed, pinned set of
// Monte-Carlo seeds plus one characterization per gate; the workload seed
// orders the units. The Monte-Carlo seeds stay fixed because the Newton
// work of a 16-trial unit moves by up to 25 % from one seed to the next,
// which would make rounds of different workload seeds do different work.

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "ftl/bridge/lattice_netlist.hpp"
#include "ftl/bridge/metrics.hpp"
#include "ftl/bridge/variability.hpp"
#include "ftl/lattice/known_mappings.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/logic/expr_parser.hpp"
#include "ftl/spice/batch.hpp"
#include "ftl/spice/linear_solver.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ftl::serve::JsonValue;

constexpr int kMcSeeds = 4;  ///< Monte-Carlo units per gate per round: seeds 1..4

int mc_trials(bool tiny) { return tiny ? 4 : 16; }

struct Gate {
  std::string name;
  ftl::lattice::Lattice lattice;
  ftl::logic::TruthTable function;
};

std::vector<Gate> study_gates() {
  const ftl::logic::ParsedFunction maj3 =
      ftl::logic::parse_expression("a b + b c + a c", {"a", "b", "c"});
  return {
      {"xor3", ftl::lattice::xor3_lattice_3x3(), ftl::lattice::xor3_truth_table()},
      {"maj3", ftl::lattice::altun_riedel_synthesis(maj3.table, maj3.var_names),
       maj3.table},
  };
}

ftl::bridge::VariabilityResult run_mc(const Gate& gate, int trials,
                                      std::uint64_t seed) {
  ftl::bridge::VariabilityOptions vo;
  vo.sigma_vth = 0.05;
  vo.sigma_kp_rel = 0.05;
  vo.trials = trials;
  vo.seed = seed;
  vo.max_threads = 1;
  vo.engine = ftl::bridge::VariabilityEngine::kBatched;
  return ftl::bridge::monte_carlo_yield(gate.lattice, gate.function, vo);
}

JsonValue mc_json(const ftl::bridge::VariabilityResult& r) {
  JsonValue v = JsonValue::object();
  v.set("trials", JsonValue::number(r.trials));
  v.set("passing", JsonValue::number(r.passing));
  v.set("worst_low", JsonValue::str(bits_hex(r.worst_low)));
  v.set("worst_high", JsonValue::str(bits_hex(r.worst_high)));
  return v;
}

JsonValue gate_json(const ftl::bridge::GateMetrics& m) {
  JsonValue v = JsonValue::object();
  v.set("switch_count", JsonValue::number(m.switch_count));
  v.set("functional", JsonValue::boolean(m.functional));
  const std::pair<const char*, double> fields[] = {
      {"output_low_max", m.output_low_max},
      {"output_high_min", m.output_high_min},
      {"static_power_worst", m.static_power_worst},
      {"static_power_mean", m.static_power_mean},
      {"rise_time", m.rise_time},
      {"fall_time", m.fall_time},
      {"propagation_delay", m.propagation_delay},
      {"max_frequency", m.max_frequency},
      {"energy_per_transition", m.energy_per_transition},
  };
  for (const auto& [name, value] : fields) v.set(name, JsonValue::str(bits_hex(value)));
  return v;
}

struct Unit {
  const Gate* gate = nullptr;
  std::uint64_t mc_seed = 0;  ///< 0 = gate characterization unit
};

struct RoundStats {
  double wall_s = 0.0;
  double mc_s = 0.0;
  double gate_s = 0.0;
  int trials = 0;
  int chars = 0;
  std::vector<double> unit_us;
};

class Study {
 public:
  explicit Study(const Config& cfg) : tiny_(cfg.tiny), gates_(study_gates()) {
    const JsonValue* pinned = cfg.pinned.find("circuit_study");
    if (pinned != nullptr) pinned_ = *pinned;
    std::mt19937_64 rng(mix(cfg.seed ^ 0x636972637569ULL));
    for (const Gate& gate : gates_) {
      for (int s = 1; s <= kMcSeeds; ++s) units_.push_back({&gate, static_cast<std::uint64_t>(s)});
      units_.push_back({&gate, 0});
    }
    std::shuffle(units_.begin(), units_.end(), rng);
  }

  /// Runs every unit once; each unit is one checked operation.
  RoundStats round(Result& out) {
    RoundStats st;
    const Clock::time_point t0 = Clock::now();
    for (const Unit& u : units_) {
      const Clock::time_point u0 = Clock::now();
      bool ok = false;
      if (u.mc_seed != 0) {
        const ftl::bridge::VariabilityResult r =
            run_mc(*u.gate, mc_trials(tiny_), u.mc_seed);
        const double s = seconds_since(u0);
        st.mc_s += s;
        st.trials += r.trials;
        st.unit_us.push_back(s * 1e6);
        ok = expected_mc(*u.gate, u.mc_seed) == mc_json(r);
      } else {
        const ftl::bridge::GateMetrics m =
            ftl::bridge::measure_resistor_gate(u.gate->lattice, u.gate->function);
        const double s = seconds_since(u0);
        st.gate_s += s;
        st.chars += 1;
        st.unit_us.push_back(s * 1e6);
        ok = expected_gate(*u.gate) == gate_json(m);
      }
      out.check(ok, "circuit-study " + u.gate->name +
                        (u.mc_seed != 0 ? " mc seed " + std::to_string(u.mc_seed)
                                        : std::string(" gate metrics")));
    }
    st.wall_s = seconds_since(t0);
    return st;
  }

  /// Median wall time of one bench netlist build per gate, ms.
  double netlist_build_ms() const {
    std::vector<double> ms;
    for (const Gate& gate : gates_) {
      std::map<int, ftl::spice::Waveform> drives;
      for (int v = 0; v < gate.lattice.num_vars(); ++v) {
        drives[v] = ftl::spice::Waveform::dc(v % 2 == 0 ? 1.2 : 0.0);
      }
      for (int rep = 0; rep < 25; ++rep) {
        const Clock::time_point t0 = Clock::now();
        const ftl::bridge::LatticeCircuit lc =
            ftl::bridge::build_lattice_circuit(gate.lattice, drives);
        ms.push_back(seconds_since(t0) * 1e3);
        if (lc.output_node.empty()) ms.back() = -1.0;
      }
    }
    return median(ms);
  }

 private:
  JsonValue expected_mc(const Gate& gate, std::uint64_t seed) const {
    const JsonValue* g = pinned_.find("mc");
    g = g != nullptr ? g->find(gate.name) : nullptr;
    g = g != nullptr ? g->find(std::to_string(mc_trials(tiny_))) : nullptr;
    g = g != nullptr ? g->find(std::to_string(seed)) : nullptr;
    return g != nullptr ? *g : JsonValue();
  }
  JsonValue expected_gate(const Gate& gate) const {
    const JsonValue* g = pinned_.find("gates");
    g = g != nullptr ? g->find(gate.name) : nullptr;
    return g != nullptr ? *g : JsonValue();
  }

  bool tiny_;
  std::vector<Gate> gates_;
  std::vector<Unit> units_;
  JsonValue pinned_ = JsonValue::object();
};

}  // namespace

Result run_circuit_study(const Config& cfg) {
  Result out;
  Result warm;  // warm-up checks are not part of the measured run
  std::vector<double> setups;
  std::unique_ptr<Study> study;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t0 = Clock::now();
    study = std::make_unique<Study>(cfg);
    study->round(warm);
    setups.push_back(seconds_since(t0));
  }
  if (warm.failed != 0) out.info.insert(out.info.end(), warm.info.begin(), warm.info.end());

  if (cfg.trace) {
    const int rounds = cfg.tiny ? 1 : 3;
    double plain_s = 0.0;
    for (int r = 0; r < rounds; ++r) plain_s += study->round(out).wall_s;

    const ftl::spice::BatchCounters b0 = ftl::spice::batch_counters();
    const ftl::spice::SpiceCounters s0 = ftl::spice::spice_counters();
    double traced_s = 0.0, mc_s = 0.0, gate_s = 0.0;
    int trials = 0;
    for (int r = 0; r < rounds; ++r) {
      const RoundStats st = study->round(out);
      traced_s += st.wall_s;
      mc_s += st.mc_s;
      gate_s += st.gate_s;
      trials += st.trials;
    }
    const ftl::spice::BatchCounters b1 = ftl::spice::batch_counters();
    const ftl::spice::SpiceCounters s1 = ftl::spice::spice_counters();

    const double batch_iters = static_cast<double>(b1.newton_iterations - b0.newton_iterations);
    const double lanes = static_cast<double>(b1.lanes - b0.lanes);
    const double spice_iters = static_cast<double>(s1.newton_iterations - s0.newton_iterations);
    out.set("spice.batch.newton_iterations", batch_iters, "count");
    out.set("spice.batch.iterations_per_trial", trials > 0 ? batch_iters / trials : 0.0,
            "count");
    out.set("spice.batch.us_per_iteration", batch_iters > 0 ? mc_s * 1e6 / batch_iters : 0.0,
            "us");
    out.set("spice.batch.symbolic_factors",
            static_cast<double>(b1.symbolic_factors - b0.symbolic_factors), "count");
    out.set("spice.batch.numeric_refactors",
            static_cast<double>(b1.numeric_refactors - b0.numeric_refactors), "count");
    out.set("spice.batch.fallback_frac",
            lanes > 0 ? static_cast<double>(b1.lane_fallbacks - b0.lane_fallbacks) / lanes
                      : 0.0,
            "fraction");
    out.set("spice.newton_iterations", spice_iters, "count");
    out.set("spice.factors", static_cast<double>(s1.factors - s0.factors), "count");
    out.set("spice.refactors", static_cast<double>(s1.refactors - s0.refactors), "count");
    out.set("spice.dense_solves", static_cast<double>(s1.dense_solves - s0.dense_solves),
            "count");
    out.set("spice.us_per_iteration", spice_iters > 0 ? gate_s * 1e6 / spice_iters : 0.0,
            "us");
    out.set("bridge.mc_busy_s", mc_s, "s");
    out.set("bridge.gate_busy_s", gate_s, "s");
    out.set("bridge.netlist_build_ms", study->netlist_build_ms(), "ms");
    out.set("trace.overhead_frac", traced_s / plain_s - 1.0, "fraction");
    return out;
  }

  // Figures are whole-window aggregates (busy-time rates, percentiles over
  // every unit). The host's slow phases last seconds to minutes, so a run
  // is a mix of phases; aggregates average that mix, where per-round
  // medians flip with whichever phase holds the majority of the window
  // (README.md, "End-to-end metrics", gives the measured spreads).
  std::vector<double> round_s, unit_us;
  double mc_s = 0.0, gate_s = 0.0, total_s = 0.0;
  int trials = 0, chars = 0;
  const Clock::time_point start = Clock::now();
  while (round_s.empty() || seconds_since(start) < cfg.seconds) {
    const RoundStats st = study->round(out);
    round_s.push_back(st.wall_s);
    total_s += st.wall_s;
    mc_s += st.mc_s;
    gate_s += st.gate_s;
    trials += st.trials;
    chars += st.chars;
    unit_us.insert(unit_us.end(), st.unit_us.begin(), st.unit_us.end());
  }
  out.set("setup_s", median(setups), "s");
  out.set("pipeline_s", total_s / static_cast<double>(round_s.size()), "s");
  out.set("mc_trials_per_s", trials / mc_s, "trials/s");
  out.set("gate_chars_per_s", chars / gate_s, "gates/s");
  out.set("requests_per_s", static_cast<double>(unit_us.size()) / total_s, "req/s");
  out.set("latency_p50_us", percentile(unit_us, 50.0), "us");
  out.set("latency_p99_us", percentile(unit_us, 99.0), "us");
  out.info.push_back("samples: " + std::to_string(round_s.size()) + " rounds, " +
                     std::to_string(unit_us.size()) + " units");
  return out;
}

JsonValue pin_circuit_study() {
  JsonValue mc = JsonValue::object();
  JsonValue gates = JsonValue::object();
  for (const Gate& gate : study_gates()) {
    JsonValue by_trials = JsonValue::object();
    for (const bool tiny : {false, true}) {
      JsonValue by_seed = JsonValue::object();
      for (int s = 1; s <= kMcSeeds; ++s) {
        by_seed.set(std::to_string(s),
                    mc_json(run_mc(gate, mc_trials(tiny), static_cast<std::uint64_t>(s))));
      }
      by_trials.set(std::to_string(mc_trials(tiny)), std::move(by_seed));
    }
    mc.set(gate.name, std::move(by_trials));
    gates.set(gate.name,
              gate_json(ftl::bridge::measure_resistor_gate(gate.lattice, gate.function)));
  }
  JsonValue out = JsonValue::object();
  out.set("mc", std::move(mc));
  out.set("gates", std::move(gates));
  return out;
}

}  // namespace perfbench
