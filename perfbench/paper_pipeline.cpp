// paper-pipeline: the cold paper reproduction users run — the whole Figs.
// 5-12 + Table III job graph, cache off, serial (jobs = 1, workers = 1), at
// the paper-figure options (mesh 48, 26 sweep points). The inputs are the
// fixed paper options, so the seed selects nothing here.

#include <string>
#include <vector>

#include "ftl/jobs/digest.hpp"
#include "ftl/jobs/pipeline.hpp"
#include "ftl/jobs/scheduler.hpp"
#include "ftl/spice/linear_solver.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ftl::serve::JsonValue;

// A pipeline needs 8-13 s on a 4-vCPU x86-64 host, about the length of the
// window, so every run times at least this many cold pipelines.
constexpr int kMinPipelines = 3;

ftl::jobs::PipelineOptions pipeline_options(bool tiny) {
  ftl::jobs::PipelineOptions o;
  o.workers = 1;
  if (tiny) {
    o.mesh = 12;
    o.sweep_points = 9;
    o.chain_max = 5;
    o.transient_periods = 2;
    o.mc_trials = 8;
  }
  return o;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

// Layer (repo module) doing a job's work; every job of the DAG has one, so
// the per-layer busy times plus the scheduler overhead add up to the run.
std::string layer_of(const std::string& job) {
  if (starts_with(job, "tcad_") || job == "fig5" || job == "fig6" ||
      job == "fig7" || job == "fig8") {
    return "tcad";
  }
  if (starts_with(job, "fit_") || job == "fig10" || job == "table3") return "fit";
  if (starts_with(job, "fig11") || starts_with(job, "fig12")) return "spice";
  if (job == "sweep_batch") return "bridge";
  return "";
}

struct ColdRun {
  ftl::jobs::RunResult result;
  double wall_s = 0.0;
  std::uint64_t spice_newton = 0;  ///< classic SPICE Newton iterations
};

ColdRun run_cold(const ftl::jobs::PaperPipeline& pipeline) {
  ftl::jobs::RunOptions ro;
  ro.jobs = 1;
  ro.use_cache = false;
  ColdRun run;
  const std::uint64_t newton0 = ftl::spice::spice_counters().newton_iterations;
  const Clock::time_point t0 = Clock::now();
  run.result = ftl::jobs::run_graph(pipeline.graph, ro);
  run.wall_s = seconds_since(t0);
  run.spice_newton = ftl::spice::spice_counters().newton_iterations - newton0;
  return run;
}

// One operation per job: it must succeed and its artifact's content digest
// must equal the pinned one.
void check_run(const ftl::jobs::PaperPipeline& pipeline, const ColdRun& run,
               const JsonValue& pinned, Result& out) {
  for (const ftl::jobs::JobId id : pipeline.all) {
    const std::string& name = pipeline.graph.job(id).name;
    const ftl::jobs::JobReport& rep = run.result.reports[id];
    const JsonValue* want = pinned.find(name);
    const bool ok = rep.status == ftl::jobs::JobStatus::kSucceeded &&
                    rep.artifact != nullptr && want != nullptr &&
                    want->is_string() &&
                    want->as_string() ==
                        ftl::jobs::digest_hex(rep.artifact->content_digest());
    out.check(ok, "paper-pipeline job " + name + " (" +
                      ftl::jobs::to_string(rep.status) + ", " + rep.error + ")");
  }
}

void set_layers(const ftl::jobs::PaperPipeline& pipeline, const ColdRun& run,
                Result& out) {
  std::map<std::string, double> busy_s;
  double passes = 0.0;
  double pass_job_ms = 0.0;
  double levmar = 0.0;
  double jobs_ms = 0.0;
  for (const ftl::jobs::JobId id : pipeline.all) {
    const std::string& name = pipeline.graph.job(id).name;
    const ftl::jobs::JobReport& rep = run.result.reports[id];
    const std::string layer = layer_of(name);
    if (layer.empty()) out.info.push_back("job of no known layer: " + name);
    busy_s[layer] += rep.wall_ms / 1e3;
    jobs_ms += rep.wall_ms;
    if (const auto it = rep.counters.find("solver_passes"); it != rep.counters.end()) {
      passes += it->second;
      pass_job_ms += rep.wall_ms;
    }
    if (const auto it = rep.counters.find("levmar_iterations"); it != rep.counters.end()) {
      levmar += it->second;
    }
  }
  out.set("tcad.busy_s", busy_s["tcad"], "s");
  out.set("tcad.solver_passes", passes, "count");
  out.set("tcad.ms_per_pass", passes > 0.0 ? pass_job_ms / passes : 0.0, "ms");
  out.set("fit.busy_s", busy_s["fit"], "s");
  out.set("fit.levmar_iterations", levmar, "count");
  out.set("spice.pipeline_busy_s", busy_s["spice"], "s");
  out.set("spice.pipeline_newton_iterations", static_cast<double>(run.spice_newton),
          "count");
  out.set("bridge.sweep_busy_s", busy_s["bridge"], "s");
  out.set("jobs.overhead_s", run.wall_s - jobs_ms / 1e3, "s");
}

}  // namespace

Result run_paper_pipeline(const Config& cfg) {
  const ftl::jobs::PipelineOptions options = pipeline_options(cfg.tiny);
  const JsonValue* pinned_set = cfg.pinned.find("paper_pipeline");
  const JsonValue* found =
      pinned_set != nullptr ? pinned_set->find(cfg.tiny ? "tiny" : "paper") : nullptr;
  const JsonValue pinned = found != nullptr ? *found : JsonValue::object();

  Result out;
  std::vector<double> setups;
  // Set-up is building the job graph: one untimed build, then the median
  // of repeated builds.
  ftl::jobs::PaperPipeline pipeline = ftl::jobs::build_paper_pipeline(options);
  for (int i = 0; i < 25; ++i) {
    const Clock::time_point t0 = Clock::now();
    pipeline = ftl::jobs::build_paper_pipeline(options);
    setups.push_back(seconds_since(t0));
  }

  if (cfg.trace) {
    // Untraced pipeline first, then the traced one whose reports and
    // counter deltas give the layers; the wall-clock difference is the
    // tracing overhead.
    const ColdRun plain = run_cold(pipeline);
    check_run(pipeline, plain, pinned, out);
    const ColdRun traced = run_cold(pipeline);
    check_run(pipeline, traced, pinned, out);
    set_layers(pipeline, traced, out);
    out.set("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0, "fraction");
    return out;
  }

  std::vector<double> walls, job_us;
  double jobs_done = 0.0, trials = 0.0;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(walls.size()) < kMinPipelines ||
         seconds_since(start) < cfg.seconds) {
    const ColdRun run = run_cold(pipeline);
    check_run(pipeline, run, pinned, out);
    walls.push_back(run.wall_s);
    for (const ftl::jobs::JobId id : pipeline.all) {
      job_us.push_back(run.result.reports[id].wall_ms * 1e3);
      jobs_done += 1.0;
    }
    const auto& mc = run.result.reports[static_cast<std::size_t>(pipeline.graph.find("sweep_batch"))];
    if (mc.artifact != nullptr) trials += mc.artifact->scalar("trials");
  }
  double total_s = 0.0;
  for (const double w : walls) total_s += w;

  // The rates are what one cold pipeline delivers per second of its
  // wall-clock: its jobs, the Monte-Carlo trials of sweep_batch, and the
  // one XOR3 gate characterization of fig11.
  out.set("setup_s", median(setups), "s");
  out.set("pipeline_s", total_s / static_cast<double>(walls.size()), "s");
  out.set("requests_per_s", jobs_done / total_s, "req/s");
  out.set("mc_trials_per_s", trials / total_s, "trials/s");
  out.set("gate_chars_per_s", static_cast<double>(walls.size()) / total_s, "gates/s");
  out.set("latency_p50_us", percentile(job_us, 50.0), "us");
  out.set("latency_p99_us", percentile(job_us, 99.0), "us");
  out.info.push_back("samples: " + std::to_string(walls.size()) +
                     " cold pipelines, " + std::to_string(job_us.size()) + " jobs");
  return out;
}

JsonValue pin_paper_pipeline() {
  JsonValue out = JsonValue::object();
  for (const bool tiny : {false, true}) {
    const ftl::jobs::PaperPipeline pipeline =
        ftl::jobs::build_paper_pipeline(pipeline_options(tiny));
    const ColdRun run = run_cold(pipeline);
    JsonValue digests = JsonValue::object();
    for (const ftl::jobs::JobId id : pipeline.all) {
      const ftl::jobs::JobReport& rep = run.result.reports[id];
      if (rep.artifact == nullptr) continue;
      digests.set(pipeline.graph.job(id).name,
                  JsonValue::str(ftl::jobs::digest_hex(rep.artifact->content_digest())));
    }
    out.set(tiny ? "tiny" : "paper", std::move(digests));
  }
  return out;
}

}  // namespace perfbench
