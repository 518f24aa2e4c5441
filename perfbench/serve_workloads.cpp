// serve-mix and serve-hot: request traffic against serve::Service.
//
// Both draw from one request mix. Every request line comes from a template
// (an op plus a fixed function or lattice size); the seed renames the
// template's variables for the hot set, and a fresh line renames them once
// more with a never-repeated tag. Renaming changes the line and the cache
// key but not the work, so the work of a fresh line is fixed by its
// template and the load is stationary across seeds.
//
// serve-mix: an in-process Service (2 workers) driven through submit() by
// 2 closed-loop client threads; 1 request in 10 is fresh. serve-hot: the
// warmed hot set over loopback TCP through a serve::Server (1 event loop,
// 1 worker) from run_loadgen (1 connection, 16 requests in flight).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <initializer_list>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "ftl/bridge/metrics.hpp"
#include "ftl/bridge/variability.hpp"
#include "ftl/check/equivalence.hpp"
#include "ftl/check/lattice.hpp"
#include "ftl/lattice/function.hpp"
#include "ftl/lattice/paths.hpp"
#include "ftl/lattice/synthesis.hpp"
#include "ftl/library/synthesize.hpp"
#include "ftl/logic/expr_parser.hpp"
#include "ftl/sat/solver.hpp"
#include "ftl/serve/loadgen.hpp"
#include "ftl/serve/server.hpp"
#include "ftl/serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ftl::serve::JsonValue;

// Table I of the paper (rows m = 2..9, columns n = 2..9): the `paths`
// answers are checked against it.
constexpr std::uint64_t kTable1[8][8] = {
    {2, 3, 4, 5, 6, 7, 8, 9},
    {4, 9, 16, 25, 36, 49, 64, 81},
    {6, 17, 36, 67, 118, 203, 344, 575},
    {10, 37, 94, 205, 436, 957, 2146, 4773},
    {16, 77, 236, 621, 1668, 4883, 14880, 44331},
    {26, 163, 602, 1905, 6562, 26317, 110838, 446595},
    {42, 343, 1528, 5835, 25686, 139231, 797048, 4288707},
    {68, 723, 3882, 17873, 100294, 723153, 5509834, 38930447},
};

constexpr int kFreshEvery = 10;  ///< 1 request in 10 is a fresh line
constexpr int kMcTrials = 4;     ///< trials of every sweep_batch request
constexpr int kMcSeed = 7;
constexpr double kPhaseNs = 10.0;  ///< metrics: dwell per input code
constexpr double kDtNs = 0.5;      ///< metrics: transient step

struct Function {
  const char* pattern;  ///< {k} stands for variable k
  int vars;
};

const Function kFunctions[] = {
    {"{0} {1} + {1} {2} + {0} {2}", 3},                                // MAJ3
    {"{0} {1}' {2}' + {0}' {1} {2}' + {0}' {1}' {2} + {0} {1} {2}", 3},  // XOR3
    {"{0} {1} + {0}' {2}", 3},                                         // MUX
    {"{0} {1} + {2} {3}", 4},
};

enum class Op { kSynth, kSynthSat, kEval, kLint, kPaths, kMetrics, kSweepBatch };
constexpr int kOps = 7;
const char* const kOpNames[kOps] = {"synth", "synth_sat", "eval",       "lint",
                                    "paths", "metrics",   "sweep_batch"};

struct Template {
  Op op;
  int function = 0;        ///< index into kFunctions (unused by paths)
  int rows = 0, cols = 0;  ///< synth_sat target shape / paths grid
  int fresh_weight = 1;    ///< fresh lines of this template per cycle
  bool feasible = true;    ///< synth_sat: a rows x cols lattice exists
};

// The hot set holds one line per template. Fresh lines cycle through a
// seed-shuffled list holding each template fresh_weight times (70 per
// cycle), so every window sees the same miss work. Latency classes of the
// fresh lines, slowest first: metrics and sweep_batch (SPICE, 2 of 70),
// then the infeasible synth_sat (a CDCL proof on every line, 12 of 70),
// then the library/lint/eval misses, then paths (a memory hit). The top 10 %
// of fresh lines -- p99 of the whole mix -- therefore sits in the middle of
// the SAT class, and p50 sits among the hits (9 of 10 requests).
std::vector<Template> make_templates() {
  std::vector<Template> t;
  for (int f = 0; f < 4; ++f) t.push_back({Op::kSynth, f, 0, 0, 2});
  t.push_back({Op::kSynthSat, 1, 3, 3, 2});
  t.push_back({Op::kSynthSat, 3, 2, 2, 2});
  t.push_back({Op::kSynthSat, 1, 3, 2, 12, false});
  for (int f = 0; f < 4; ++f) t.push_back({Op::kEval, f, 0, 0, 2});
  for (int f = 0; f < 4; ++f) t.push_back({Op::kLint, f, 0, 0, 3});
  for (const int n : {3, 4, 5, 6, 7, 8}) t.push_back({Op::kPaths, 0, n, n, 4});
  t.push_back({Op::kMetrics, 0, 0, 0, 1});
  t.push_back({Op::kSweepBatch, 0, 0, 0, 1});
  return t;
}

std::vector<std::string> var_names(const Function& f, const std::string& tag) {
  std::vector<std::string> names;
  for (int v = 0; v < f.vars; ++v) {
    names.push_back(std::string(1, static_cast<char>('a' + v)) + "_" + tag);
  }
  return names;
}

std::string expr_for(const Function& f, const std::vector<std::string>& vars) {
  std::string out;
  for (const char* p = f.pattern; *p != '\0'; ++p) {
    if (*p == '{') {
      out += vars[static_cast<std::size_t>(p[1] - '0')];
      p += 2;
    } else {
      out += *p;
    }
  }
  return out;
}

JsonValue string_array(const std::vector<std::string>& items) {
  JsonValue a = JsonValue::array();
  for (const std::string& s : items) a.push(JsonValue::str(s));
  return a;
}

/// Request line for `t`, variables tagged `tag`. A paths line has no
/// variables; its fresh variant carries a request id instead (same cache
/// key, new line), so it takes the parse + cache-key route to a memory hit.
std::string request_line(const Template& t, const std::string& tag, long long id) {
  JsonValue req = JsonValue::object();
  if (t.op == Op::kPaths) {
    if (id >= 0) req.set("id", JsonValue::number(static_cast<double>(id)));
    req.set("op", JsonValue::str("paths"));
    req.set("rows", JsonValue::number(t.rows));
    req.set("cols", JsonValue::number(t.cols));
    return req.dump();
  }
  const Function& f = kFunctions[t.function];
  const std::vector<std::string> vars = var_names(f, tag);
  req.set("op", JsonValue::str(kOpNames[static_cast<int>(t.op)]));
  req.set("expr", JsonValue::str(expr_for(f, vars)));
  req.set("vars", string_array(vars));
  switch (t.op) {
    case Op::kSynthSat:
      req.set("rows", JsonValue::number(t.rows));
      req.set("cols", JsonValue::number(t.cols));
      break;
    case Op::kLint:
      req.set("equiv", JsonValue::str("sat"));
      break;
    case Op::kMetrics:
      req.set("phase_ns", JsonValue::number(kPhaseNs));
      req.set("dt_ns", JsonValue::number(kDtNs));
      break;
    case Op::kSweepBatch:
      req.set("trials", JsonValue::number(kMcTrials));
      req.set("seed", JsonValue::number(kMcSeed));
      req.set("workers", JsonValue::number(1));
      break;
    default:
      break;
  }
  return req.dump();
}

ftl::logic::ParsedFunction parsed_for(const Template& t, const std::string& tag) {
  const Function& f = kFunctions[t.function];
  const std::vector<std::string> vars = var_names(f, tag);
  return ftl::logic::parse_expression(expr_for(f, vars), vars);
}

ftl::lattice::Lattice altun(const ftl::logic::ParsedFunction& parsed) {
  return ftl::lattice::altun_riedel_synthesis(parsed.table, parsed.var_names);
}

// The options the service derives from a metrics / sweep_batch line.
ftl::bridge::MeasureOptions measure_options() {
  ftl::bridge::MeasureOptions mo;
  mo.phase_time = kPhaseNs * 1e-9;
  mo.dt = kDtNs * 1e-9;
  return mo;
}

ftl::bridge::VariabilityOptions sweep_options() {
  ftl::bridge::VariabilityOptions vo;
  vo.sigma_vth = 0.01;  // the service defaults
  vo.sigma_kp_rel = 0.05;
  vo.trials = kMcTrials;
  vo.seed = kMcSeed;
  vo.max_threads = 1;
  return vo;
}

bool lattice_realizes(const JsonValue& resp, const Template& t, const std::string& tag) {
  const JsonValue* found = resp.find("found");
  const JsonValue* lat = resp.find("lattice");
  if (found == nullptr || !found->is_bool() || !found->as_bool() || lat == nullptr) {
    return false;
  }
  const ftl::serve::LatticeSpec spec = ftl::serve::lattice_spec_from(*lat);
  const std::string expr = expr_for(kFunctions[t.function], var_names(kFunctions[t.function], tag));
  return ftl::lattice::realizes(
      spec.lat, ftl::logic::parse_expression(expr, spec.lat.var_names()).table);
}

/// Output check of one response. `reference` is the verified hot-line
/// response of the same template: fresh metrics/sweep_batch answers carry
/// no variable names, so they must repeat it byte for byte.
bool verify(const Template& t, const std::string& tag, const std::string& response,
            const std::string* reference) {
  try {
    const JsonValue resp = JsonValue::parse(response);
    const JsonValue* ok = resp.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) return false;
    switch (t.op) {
      case Op::kSynth:
        return lattice_realizes(resp, t, tag);
      case Op::kSynthSat:
        if (!t.feasible) {
          const JsonValue* proven = resp.find("proven_infeasible");
          return proven != nullptr && proven->is_bool() && proven->as_bool();
        }
        return lattice_realizes(resp, t, tag);
      case Op::kEval: {
        const ftl::logic::TruthTable table = parsed_for(t, tag).table;
        const JsonValue* on_set = resp.find("on_set");
        if (on_set == nullptr || !on_set->is_array()) return false;
        std::vector<double> want;
        for (std::uint64_t m = 0; m < table.num_minterms(); ++m) {
          if (table.get(m)) want.push_back(static_cast<double>(m));
        }
        std::vector<double> got;
        for (const JsonValue& v : on_set->items()) got.push_back(v.as_number());
        return got == want;
      }
      case Op::kLint: {
        const JsonValue* report = resp.find("report");
        const JsonValue* errors = report != nullptr ? report->find("errors") : nullptr;
        return errors != nullptr && errors->is_number() && errors->as_number() == 0.0;
      }
      case Op::kPaths: {
        const JsonValue* count = resp.find("count");
        return count != nullptr && count->is_number() &&
               count->as_number() == static_cast<double>(kTable1[t.rows - 2][t.cols - 2]);
      }
      case Op::kMetrics: {
        if (reference != nullptr) return response == *reference;
        const JsonValue* m = resp.find("metrics");
        const JsonValue* functional = m != nullptr ? m->find("functional") : nullptr;
        return functional != nullptr && functional->is_bool() && functional->as_bool();
      }
      case Op::kSweepBatch: {
        if (reference != nullptr) return response == *reference;
        // The hot line is checked against a direct batched Monte-Carlo run.
        const ftl::logic::ParsedFunction parsed = parsed_for(t, tag);
        const ftl::bridge::VariabilityResult r =
            ftl::bridge::monte_carlo_yield(altun(parsed), parsed.table, sweep_options());
        return resp.number_or("trials", -1) == r.trials &&
               resp.number_or("passing", -1) == r.passing &&
               resp.number_or("worst_low", -1) == r.worst_low &&
               resp.number_or("worst_high", -1) == r.worst_high;
      }
    }
  } catch (const std::exception&) {
    return false;
  }
  return false;
}

/// The request sequence of one run, a pure function of (seed, index).
class Mix {
 public:
  explicit Mix(std::uint64_t seed)
      : seed_(seed), templates_(make_templates()), hot_tag_(hot_tag(seed)) {
    for (std::size_t i = 0; i < templates_.size(); ++i) {
      for (int w = 0; w < templates_[i].fresh_weight; ++w) {
        fresh_cycle_.push_back(static_cast<int>(i));
      }
      hot_lines_.push_back(request_line(templates_[i], hot_tag_, -1));
    }
    std::mt19937_64 rng(mix(seed ^ 0x6672657368ULL));
    std::shuffle(fresh_cycle_.begin(), fresh_cycle_.end(), rng);
  }

  struct Request {
    int tmpl = 0;
    bool fresh = false;
    std::string line;  ///< empty for hot requests: use hot_line(tmpl)
  };

  Request at(std::uint64_t i) const {
    Request r;
    if (i % kFreshEvery == kFreshEvery - 1) {
      r.fresh = true;
      r.tmpl = fresh_cycle_[(i / kFreshEvery) % fresh_cycle_.size()];
      r.line = request_line(templates_[static_cast<std::size_t>(r.tmpl)], fresh_tag(i),
                            static_cast<long long>(i));
    } else {
      r.tmpl = static_cast<int>(mix(seed_ + i * 0x9e3779b97f4a7c15ULL) % templates_.size());
    }
    return r;
  }

  std::string fresh_tag(std::uint64_t i) const { return "f" + std::to_string(i); }
  const std::string& hot_tag() const { return hot_tag_; }
  const std::vector<Template>& templates() const { return templates_; }
  /// Requests per full cycle of fresh lines.
  std::size_t cycle_requests() const { return fresh_cycle_.size() * kFreshEvery; }
  const std::string& hot_line(int tmpl) const { return hot_lines_[static_cast<std::size_t>(tmpl)]; }

 private:
  static std::string hot_tag(std::uint64_t seed) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "h%llx",
                  static_cast<unsigned long long>(mix(seed) & 0xffffffffULL));
    return buf;
  }

  std::uint64_t seed_;
  std::vector<Template> templates_;
  std::string hot_tag_;
  std::vector<int> fresh_cycle_;
  std::vector<std::string> hot_lines_;
};

/// Warms a service with every hot line and verifies each answer; returns
/// the verified responses (empty string = failed check).
std::vector<std::string> warm(ftl::serve::Service& svc, const Mix& mix,
                              std::vector<std::string>& failures) {
  std::vector<std::string> responses;
  for (std::size_t i = 0; i < mix.templates().size(); ++i) {
    const std::string& line = mix.hot_line(static_cast<int>(i));
    std::string resp = svc.handle_now(line);
    if (!verify(mix.templates()[i], mix.hot_tag(), resp, nullptr)) {
      failures.push_back("hot line failed its check: " + line + " -> " + resp);
      resp.clear();
    }
    responses.push_back(std::move(resp));
  }
  return responses;
}

// ---- serve-mix -------------------------------------------------------------

struct Served {
  std::uint32_t index = 0;
  float latency_us = 0.0F;
  float done_s = 0.0F;  ///< completion time since the pass started
  std::uint16_t tmpl = 0;
  bool fresh = false;
  bool ok = false;  ///< passed its output check
};

/// Samples per client in a time-bounded pass. The sample buffer is
/// allocated and touched before timing, so peak RSS does not grow with
/// throughput; a client that fills its share (~40 s at 26k requests/s)
/// stops early.
constexpr std::size_t kLogCapacity = std::size_t{1} << 20;

/// One closed-loop pass: `clients` threads take sequence indices from
/// `first` on until `seconds` pass (count == 0) or `count` requests were
/// taken. Each answer is checked as it arrives, outside the timed span: a
/// hot line against its verified answer, a fresh line by verify().
std::vector<Served> drive(ftl::serve::Service& svc, const Mix& mix,
                          const std::vector<std::string>& hot_responses, int clients,
                          std::uint64_t first, std::uint64_t count, double seconds) {
  std::atomic<std::uint64_t> next{first};
  const std::size_t capacity = count != 0 ? count : kLogCapacity;
  std::vector<Served> log(static_cast<std::size_t>(clients) * capacity);
  std::vector<std::size_t> sizes(static_cast<std::size_t>(clients), 0);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Served* const mine = log.data() + static_cast<std::size_t>(c) * capacity;
      std::size_t& n = sizes[static_cast<std::size_t>(c)];
      while (n < capacity) {
        if (count == 0 && seconds_since(start) >= seconds) break;
        const std::uint64_t i = next.fetch_add(1);
        if (count != 0 && i >= first + count) break;
        const Mix::Request r = mix.at(i);
        const std::string& line = r.fresh ? r.line : mix.hot_line(r.tmpl);
        const Clock::time_point t0 = Clock::now();
        const std::string resp = svc.submit(line).get();
        const Clock::time_point t1 = Clock::now();
        Served& s = mine[n++];
        s.index = static_cast<std::uint32_t>(i);
        s.tmpl = static_cast<std::uint16_t>(r.tmpl);
        s.fresh = r.fresh;
        s.latency_us = std::chrono::duration<float, std::micro>(t1 - t0).count();
        s.done_s = std::chrono::duration<float>(t1 - start).count();
        const std::string& ref = hot_responses[static_cast<std::size_t>(r.tmpl)];
        if (!r.fresh) {
          s.ok = !ref.empty() && resp == ref;
        } else {
          const Template& t = mix.templates()[static_cast<std::size_t>(r.tmpl)];
          s.ok = verify(t, mix.fresh_tag(i), resp, ref.empty() ? nullptr : &ref) &&
                 (t.op != Op::kPaths ||
                  resp.rfind("{\"id\":" + std::to_string(i) + ",", 0) == 0);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // Compact the per-client shares in place (no new pages touched).
  std::size_t total = 0;
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    const auto from = log.begin() + static_cast<std::ptrdiff_t>(c * capacity);
    std::move(from, from + static_cast<std::ptrdiff_t>(sizes[c]),
              log.begin() + static_cast<std::ptrdiff_t>(total));
    total += sizes[c];
  }
  log.resize(total);
  return log;
}

void check_served(const Mix& mix, const std::vector<Served>& served, Result& out) {
  for (const Served& s : served) {
    const Template& t = mix.templates()[s.tmpl];
    out.check(s.ok, std::string(kOpNames[static_cast<int>(t.op)]) + " request " +
                        std::to_string(s.index));
  }
}

JsonValue stats_of(ftl::serve::Service& svc) {
  return JsonValue::parse(svc.handle_now("{\"op\":\"stats\"}"));
}

/// The number at `path` in a `stats` response (0 when absent).
double stat(const JsonValue& stats, std::initializer_list<const char*> path) {
  const JsonValue* v = &stats;
  for (const char* key : path) {
    v = v->find(key);
    if (v == nullptr) return 0.0;
  }
  return v->is_number() ? v->as_number() : 0.0;
}

/// Engine-only replay of fresh lines for serve.engine_frac: each line runs
/// once through the engines' public calls and once through handle_now of
/// a cache-less service whose library holds the same classes, so the two
/// timings see the same library state.
struct Replay {
  double engine_s = 0.0;
  double handler_s = 0.0;
  double sat_s = 0.0;
  double sat_conflicts = 0.0;
};

Replay replay_engines(const Mix& mix, const std::vector<Served>& served, std::size_t limit) {
  ftl::serve::Service handler({.workers = 1, .cache = false});
  ftl::library::LatticeLibrary lib;

  // Same library warm-up as the measured service: the hot synth lines.
  const auto engine_call = [&](const Template& t, const std::string& tag) {
    using Engine = ftl::library::SynthesisRequest::Engine;
    const ftl::logic::ParsedFunction parsed = parsed_for(t, tag);
    ftl::library::SynthesisRequest req;
    req.var_names = parsed.var_names;
    switch (t.op) {
      case Op::kSynth: {
        const ftl::library::SynthesisResult r =
            ftl::library::synthesize(parsed.table, req, &lib);
        return static_cast<double>(ftl::lattice::count_products(r.lattice.rows(), r.lattice.cols())) +
               (ftl::lattice::realizes(r.lattice, parsed.table) ? 1.0 : 0.0);
      }
      case Op::kSynthSat: {
        req.engine = Engine::kSat;
        req.rows = t.rows;
        req.cols = t.cols;
        return ftl::library::synthesize(parsed.table, req, &lib).found ? 1.0 : 0.0;
      }
      case Op::kEval:
        return static_cast<double>(
            ftl::lattice::realized_truth_table(altun(parsed)).count_ones());
      case Op::kLint: {
        const ftl::lattice::Lattice lat = altun(parsed);
        ftl::check::Report report = ftl::check::check_lattice(lat);
        ftl::check::EquivalenceOptions eo;
        eo.backend = ftl::check::EquivalenceOptions::Backend::kSat;
        report.merge(ftl::check::check_equivalence(lat, parsed.table, eo));
        return static_cast<double>(report.errors());
      }
      case Op::kPaths:
        return static_cast<double>(ftl::lattice::count_products(t.rows, t.cols));
      case Op::kMetrics:
        return ftl::bridge::measure_resistor_gate(altun(parsed), parsed.table, measure_options())
            .rise_time;
      case Op::kSweepBatch:
        return static_cast<double>(
            ftl::bridge::monte_carlo_yield(altun(parsed), parsed.table, sweep_options()).passing);
    }
    return 0.0;
  };
  for (std::size_t i = 0; i < mix.templates().size(); ++i) {
    const Template& t = mix.templates()[i];
    if (t.op != Op::kSynth && t.op != Op::kSynthSat) continue;
    engine_call(t, mix.hot_tag());
    handler.handle_now(mix.hot_line(static_cast<int>(i)));
  }

  Replay r;
  double sink = 0.0;
  std::size_t done = 0;
  for (const Served& s : served) {
    if (!s.fresh || done >= limit) continue;
    ++done;
    const Template& t = mix.templates()[static_cast<std::size_t>(s.tmpl)];
    const std::string tag = mix.fresh_tag(s.index);
    const std::string line = request_line(t, tag, static_cast<long long>(s.index));
    const bool sat = t.op == Op::kSynthSat || t.op == Op::kLint;
    const std::uint64_t c0 = ftl::sat::sat_counters().conflicts;
    Clock::time_point t0 = Clock::now();
    sink += engine_call(t, tag);
    const double engine = seconds_since(t0);
    r.engine_s += engine;
    if (sat) {
      r.sat_s += engine;
      r.sat_conflicts += static_cast<double>(ftl::sat::sat_counters().conflicts - c0);
    }
    t0 = Clock::now();
    sink += static_cast<double>(handler.handle_now(line).size());
    r.handler_s += seconds_since(t0);
  }
  if (sink == -1.0) std::printf("info replay sink\n");
  return r;
}

}  // namespace

Result run_serve_mix(const Config& cfg) {
  constexpr int kClients = 2;
  const Mix mix(cfg.seed);
  Result out;

  std::vector<double> setups;
  std::unique_ptr<ftl::serve::Service> svc;
  std::vector<std::string> hot;
  for (int i = 0; i < 3; ++i) {
    std::vector<std::string> failures;
    const Clock::time_point t0 = Clock::now();
    svc.reset();
    svc = std::make_unique<ftl::serve::Service>(
        ftl::serve::ServiceOptions{.workers = kClients});
    hot = warm(*svc, mix, failures);
    setups.push_back(seconds_since(t0));
    if (i == 0) out.info.insert(out.info.end(), failures.begin(), failures.end());
  }

  if (cfg.trace) {
    const std::uint64_t n = cfg.tiny ? 200 : 3000;
    const Clock::time_point p0 = Clock::now();
    const std::vector<Served> plain = drive(*svc, mix, hot, kClients, 0, n, 0.0);
    const double plain_s = seconds_since(p0);
    check_served(mix, plain, out);

    const JsonValue before = stats_of(*svc);
    const Clock::time_point t0 = Clock::now();
    const std::vector<Served> traced = drive(*svc, mix, hot, kClients, n, n, 0.0);
    const double traced_s = seconds_since(t0);
    const JsonValue after = stats_of(*svc);
    check_served(mix, traced, out);

    const auto delta = [&](std::initializer_list<const char*> path) {
      return stat(after, path) - stat(before, path);
    };
    // Per-op latency of the fresh lines: hits cost the same ~2 us for every
    // op, so the misses are where one op differs from another.
    std::map<int, std::vector<double>> by_op;
    for (const Served& s : traced) {
      if (s.fresh) by_op[static_cast<int>(mix.templates()[s.tmpl].op)].push_back(s.latency_us);
    }
    for (int op = 0; op < kOps; ++op) {
      out.set(std::string("serve.op.") + kOpNames[op] + ".p50_us", percentile(by_op[op], 50.0),
              "us");
    }
    // A miss probes the memory tier twice (admission, then the worker), so
    // misses and the hit fraction come from the per-request rollup.
    const double hits = delta({"stats", "total", "cache_hits"});
    const double misses = delta({"stats", "total", "cache_misses"});
    out.set("serve.cache.line_hits", delta({"cache_core", "line_hits"}), "count");
    out.set("serve.cache.memory_hits", delta({"cache_core", "memory_hits"}), "count");
    out.set("serve.cache.misses", misses, "count");
    out.set("serve.cache.hit_frac", hits / (hits + misses), "fraction");
    const double lookups = delta({"library_core", "lookups"});
    out.set("library.class_hits", delta({"library_core", "class_hits"}), "count");
    out.set("library.misses", delta({"library_core", "misses"}), "count");
    out.set("library.hit_frac", lookups > 0 ? delta({"library_core", "class_hits"}) / lookups : 0.0,
            "fraction");
    out.set("library.verify_rejects", delta({"library_core", "verify_rejects"}), "count");
    out.set("sat.conflicts", delta({"sat_core", "conflicts"}), "count");
    out.set("sat.propagations", delta({"sat_core", "propagations"}), "count");
    out.set("lattice.eval_blocks", delta({"eval_core", "blocks"}), "count");

    const Replay replay = replay_engines(mix, traced, cfg.tiny ? 20 : 200);
    out.set("serve.engine_frac", replay.handler_s > 0 ? replay.engine_s / replay.handler_s : 0.0,
            "fraction");
    out.set("sat.us_per_conflict",
            replay.sat_conflicts > 0 ? replay.sat_s * 1e6 / replay.sat_conflicts : 0.0, "us");
    out.set("trace.overhead_frac", traced_s / plain_s - 1.0, "fraction");
    return out;
  }

  const std::vector<Served> served = drive(*svc, mix, hot, kClients, 0, 0, cfg.seconds);
  check_served(mix, served, out);

  // Whole-window aggregates (see circuit_study.cpp for why not medians of
  // slices); a pass of the window holds whole fresh-line cycles of 700
  // requests up to the last, partial one.
  std::vector<double> latency;
  latency.reserve(served.size());
  double trials = 0.0, chars = 0.0, window_s = 0.0;
  for (const Served& s : served) {
    latency.push_back(s.latency_us);
    const Op op = mix.templates()[s.tmpl].op;
    if (op == Op::kSweepBatch) trials += kMcTrials;
    if (op == Op::kMetrics) chars += 1.0;
    window_s = std::max(window_s, static_cast<double>(s.done_s));
  }
  const double requests = static_cast<double>(served.size());
  const std::size_t block = mix.cycle_requests();

  out.set("setup_s", median(setups), "s");
  out.set("requests_per_s", requests / window_s, "req/s");
  out.set("latency_p50_us", percentile(latency, 50.0), "us");
  out.set("latency_p99_us", percentile(latency, 99.0), "us");
  out.set("pipeline_s", window_s * static_cast<double>(block) / requests, "s");
  out.set("mc_trials_per_s", trials / window_s, "trials/s");
  out.set("gate_chars_per_s", chars / window_s, "gates/s");
  out.info.push_back("samples: " + std::to_string(served.size()) + " requests, " +
                     std::to_string(served.size() / 100) + " beyond p99");
  return out;
}

// ---- serve-hot -------------------------------------------------------------

Result run_serve_hot(const Config& cfg) {
  const Mix mix(cfg.seed);
  Result out;
  const std::size_t round_requests = cfg.tiny ? 2000 : 40000;

  std::vector<std::string> hot_lines;
  for (std::size_t i = 0; i < mix.templates().size(); ++i) {
    hot_lines.push_back(mix.hot_line(static_cast<int>(i)));
  }

  std::vector<double> setups;
  std::unique_ptr<ftl::serve::Service> svc;  // outlives the server
  std::unique_ptr<ftl::serve::Server> server;
  std::vector<std::string> hot;
  for (int i = 0; i < 3; ++i) {
    std::vector<std::string> failures;
    const Clock::time_point t0 = Clock::now();
    server.reset();
    svc.reset();
    svc = std::make_unique<ftl::serve::Service>(ftl::serve::ServiceOptions{.workers = 1});
    hot = warm(*svc, mix, failures);
    ftl::serve::ServerOptions so;
    so.event_loops = 1;
    server = std::make_unique<ftl::serve::Server>(*svc, so);
    server->start();
    setups.push_back(seconds_since(t0));
    if (i == 0) out.info.insert(out.info.end(), failures.begin(), failures.end());
  }
  // A request of a template whose hot answer failed its check is a failed
  // operation even when the transport returns it intact.
  std::vector<bool> template_ok;
  for (const std::string& h : hot) template_ok.push_back(!h.empty());

  ftl::serve::LoadgenOptions lo;
  lo.port = server->port();
  lo.connections = 1;
  lo.pipeline = 16;
  lo.requests = round_requests;
  lo.mix = hot_lines;

  // Requests of each op in one round: the generator cycles the mix.
  std::vector<double> per_round(kOps, 0.0);
  std::size_t bad_per_round = 0;
  for (std::size_t i = 0; i < round_requests; ++i) {
    const std::size_t tmpl = i % hot_lines.size();
    per_round[static_cast<int>(mix.templates()[tmpl].op)] += 1.0;
    if (!template_ok[tmpl]) ++bad_per_round;
  }

  const auto round = [&](Result& res) {
    const ftl::serve::LoadgenReport rep = ftl::serve::run_loadgen(lo);
    const std::size_t bad = std::min(rep.sent, rep.sent - std::min(rep.ok, rep.sent) + bad_per_round);
    for (std::size_t k = 0; k < rep.sent; ++k) res.check(k >= bad, "serve-hot request");
    return rep;
  };
  const auto recheck = [&](Result& res) {
    for (std::size_t i = 0; i < hot_lines.size(); ++i) {
      res.check(!hot[i].empty() && svc->handle_now(hot_lines[i]) == hot[i],
                "serve-hot cached answer " + hot_lines[i]);
    }
  };

  if (cfg.trace) {
    const ftl::serve::LoadgenReport plain = round(out);
    const JsonValue before = stats_of(*svc);
    const ftl::serve::LoadgenReport traced = round(out);
    const JsonValue after = stats_of(*svc);
    // In-process hit time: handle_now over the whole hot set, per call.
    std::vector<double> per_call_us;
    std::size_t bytes = 0;
    for (int rep = 0; rep < (cfg.tiny ? 20 : 400); ++rep) {
      const Clock::time_point t0 = Clock::now();
      for (const std::string& line : hot_lines) bytes += svc->handle_now(line).size();
      per_call_us.push_back(seconds_since(t0) * 1e6 / static_cast<double>(hot_lines.size()));
    }
    out.info.push_back("in-process hits returned " + std::to_string(bytes) + " bytes");
    recheck(out);
    const double inproc = median(per_call_us);
    out.set("serve.inproc_hit_us", inproc, "us");
    out.set("serve.transport_us", traced.p50_us - inproc, "us");
    const auto delta = [&](const char* key) {
      return stat(after, {"cache_core", key}) - stat(before, {"cache_core", key});
    };
    out.set("serve.cache.line_hits", delta("line_hits"), "count");
    out.set("serve.cache.shard_contention", delta("shard_contention"), "count");
    out.set("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0, "fraction");
    server->stop();
    return out;
  }

  // Rates are whole-window aggregates as in serve-mix; the generator
  // reports percentiles per round only, so those are medians over rounds.
  std::vector<double> p50s, p99s;
  double sent = 0.0, busy_s = 0.0;
  std::size_t rounds = 0;
  const Clock::time_point start = Clock::now();
  while (rounds == 0 || seconds_since(start) < cfg.seconds) {
    const ftl::serve::LoadgenReport rep = round(out);
    ++rounds;
    sent += static_cast<double>(rep.sent);
    busy_s += rep.wall_s;
    p50s.push_back(rep.p50_us);
    p99s.push_back(rep.p99_us);
  }
  recheck(out);
  server->stop();

  const double rounds_per_s = static_cast<double>(rounds) / busy_s;
  out.set("setup_s", median(setups), "s");
  out.set("requests_per_s", sent / busy_s, "req/s");
  out.set("latency_p50_us", median(p50s), "us");
  out.set("latency_p99_us", median(p99s), "us");
  out.set("pipeline_s", busy_s / static_cast<double>(rounds), "s");
  out.set("mc_trials_per_s",
          per_round[static_cast<int>(Op::kSweepBatch)] * kMcTrials * rounds_per_s, "trials/s");
  out.set("gate_chars_per_s", per_round[static_cast<int>(Op::kMetrics)] * rounds_per_s,
          "gates/s");
  out.info.push_back("samples: " + std::to_string(rounds) + " rounds of " +
                     std::to_string(round_requests) + " requests; percentiles are medians "
                     "of per-round values");
  return out;
}

}  // namespace perfbench
