// The paper pipeline as a job graph: DAG shape, target resolution, and a
// reduced-size end-to-end run (cold compute, then a fully warm rerun).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "ftl/jobs/pipeline.hpp"
#include "ftl/jobs/scheduler.hpp"
#include "ftl/jobs/telemetry.hpp"
#include "ftl/util/error.hpp"

namespace {

using namespace ftl;

jobs::PipelineOptions quick_options() {
  jobs::PipelineOptions o;
  o.mesh = 12;  // the junctionless terminal pads vanish on coarser meshes
  o.sweep_points = 7;
  o.chain_max = 4;
  o.transient_dt = 1e-9;
  o.transient_periods = 2;
  return o;
}

TEST(PaperPipeline, GraphShapeMatchesThePaper) {
  const jobs::PaperPipeline p = jobs::build_paper_pipeline(quick_options());
  EXPECT_EQ(p.graph.size(), 21u);  // 20 paper stages + the sweep_batch stage
  // Spot-check the §III -> §IV -> §V dependency spine.
  const jobs::JobId fig5 = p.graph.find("fig5");
  ASSERT_GE(fig5, 0);
  EXPECT_EQ(p.graph.job(fig5).deps.size(), 2u);
  const jobs::JobId fit_a = p.graph.find("fit_type_a");
  ASSERT_GE(fit_a, 0);
  EXPECT_EQ(p.graph.job(fit_a).deps,
            std::vector<jobs::JobId>{p.graph.find("tcad_fit_dsff")});
  const jobs::JobId fig11t = p.graph.find("fig11_transient");
  ASSERT_GE(fig11t, 0);
  EXPECT_EQ(p.graph.job(fig11t).deps,
            (std::vector<jobs::JobId>{fit_a, p.graph.find("fig11_dc")}));
  // Deps-first insertion: every dependency id precedes its consumer.
  for (const jobs::JobId id : p.all) {
    for (const jobs::JobId dep : p.graph.job(id).deps) EXPECT_LT(dep, id);
  }
  // Changing a pipeline knob changes the affected jobs' cache identity.
  jobs::PipelineOptions finer = quick_options();
  finer.mesh = 16;
  const jobs::PaperPipeline q = jobs::build_paper_pipeline(finer);
  EXPECT_NE(p.graph.job(p.graph.find("tcad_square_hfo2")).param_digest,
            q.graph.job(q.graph.find("tcad_square_hfo2")).param_digest);
}

TEST(PaperPipeline, ResolveTargetsHandlesNamesPrefixesAndErrors) {
  const jobs::PaperPipeline p = jobs::build_paper_pipeline(quick_options());
  EXPECT_TRUE(jobs::resolve_targets(p, {"all"}).empty());  // empty = whole DAG
  EXPECT_TRUE(jobs::resolve_targets(p, {}).empty());
  const std::vector<jobs::JobId> one = jobs::resolve_targets(p, {"fig10"});
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(p.graph.job(one[0]).name, "fig10");
  // "fig11" is a prefix group: fig11_dc + fig11_transient.
  EXPECT_EQ(jobs::resolve_targets(p, {"fig11"}).size(), 2u);
  EXPECT_EQ(jobs::resolve_targets(p, {"fig12"}).size(), 2u);
  EXPECT_THROW(jobs::resolve_targets(p, {"fig99"}), ftl::Error);
}

TEST(PaperPipeline, Fig12BranchRunsColdThenFullyWarm) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "ftl_pipeline_fig12";
  std::filesystem::remove_all(dir);

  const jobs::PaperPipeline p = jobs::build_paper_pipeline(quick_options());
  jobs::RunOptions options;
  options.cache_dir = dir.string();
  options.targets = jobs::resolve_targets(p, {"fig12"});

  const jobs::RunResult cold = jobs::run_graph(p.graph, options);
  ASSERT_TRUE(cold.ok());
  // Closure: tcad_fit_dsff -> fit_type_a -> fig12a -> fig12b.
  EXPECT_EQ(cold.succeeded, 4);
  EXPECT_EQ(cold.reports[static_cast<std::size_t>(p.graph.find("fig5"))].status,
            jobs::JobStatus::kNotRun);
  const jobs::JobId fig12b = p.graph.find("fig12b");
  const auto& artifact = cold.reports[static_cast<std::size_t>(fig12b)].artifact;
  ASSERT_TRUE(artifact);
  // Longer chains need at least the two-switch supply voltage.
  EXPECT_DOUBLE_EQ(artifact->scalar("monotone"), 1.0);
  EXPECT_GE(artifact->scalar("growth"), 1.0);

  jobs::CaptureSink sink;
  options.sink = &sink;
  const jobs::RunResult warm = jobs::run_graph(p.graph, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.cache_hits, 4);
  EXPECT_EQ(warm.succeeded, 0);
  EXPECT_EQ(sink.count("cache_hit"), 4);
  EXPECT_EQ(warm.reports[static_cast<std::size_t>(fig12b)].artifact->serialize(),
            artifact->serialize());
}

TEST(PaperPipeline, TcadJobsReportCgIterationsBesideSolverPasses) {
  const jobs::PaperPipeline p = jobs::build_paper_pipeline(quick_options());
  jobs::CaptureSink sink;
  jobs::RunOptions options;
  options.use_cache = false;
  options.sink = &sink;
  options.targets = jobs::resolve_targets(p, {"tcad_square_hfo2", "tcad_fit_dsff"});
  const jobs::RunResult run = jobs::run_graph(p.graph, options);
  ASSERT_TRUE(run.ok());
  int finishes = 0;
  for (const jobs::Event& e : sink.events()) {
    if (e.type != "job_finish") continue;
    ++finishes;
    ASSERT_EQ(e.counters.count("solver_passes"), 1u) << e.job;
    ASSERT_EQ(e.counters.count("cg_iterations"), 1u) << e.job;
    EXPECT_GT(e.counters.at("solver_passes"), 0.0) << e.job;
    EXPECT_GT(e.counters.at("cg_iterations"), e.counters.at("solver_passes")) << e.job;
    EXPECT_NE(jobs::to_json(e).find("\"cg_iterations\""), std::string::npos);
  }
  EXPECT_EQ(finishes, 2);
}

TEST(PaperPipeline, CalibrationDigestIsStableWithinAProcess) {
  EXPECT_EQ(jobs::calibration_digest(), jobs::calibration_digest());
  EXPECT_NE(jobs::calibration_digest(), 0u);
}

}  // namespace
