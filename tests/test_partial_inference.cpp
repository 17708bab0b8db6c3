/**
 * @file
 * End-to-end tests of partial inference (Sec. 4.4): overlapping
 * placements where a request entering node c_j from c_i computes only
 * layers [e_i, e_j), the only connection rule (s_j <= e_i < e_j).
 * Covers graph construction, the MILP's encoding of the rule,
 * scheduler pipeline shapes, simulation through overlapping stages,
 * and planning on a cluster whose VRAM forces overlap.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/profiler.h"
#include "core/helix.h"
#include "model/transformer.h"
#include "oracle/milp_formulation.h"
#include "placement/placement_graph.h"
#include "scheduler/scheduler.h"
#include "sim/simulator.h"

namespace helix {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Profiler;

/** Three T4s with deliberately overlapping layer ranges. */
class PartialInferenceFixture : public ::testing::Test
{
  protected:
    PartialInferenceFixture()
    {
        for (int i = 0; i < 3; ++i) {
            NodeSpec node;
            node.name = "t4-" + std::to_string(i);
            node.gpu = cluster::gpus::t4();
            clusterSpec.addNode(std::move(node));
        }
        clusterSpec.setUniformLinks(10e9, 1e-3);
        toy = model::catalog::llama30b();
        toy.numLayers = 12;
        profiler = std::make_unique<Profiler>(toy);
        // Overlapping chain: [0,6), [4,10), [8,12). The only route is
        // 0 -> 1 (partial: [6,10)) -> 2 (partial: [10,12)).
        overlapping.nodes = {{0, 6}, {4, 6}, {8, 4}};
    }

    ClusterSpec clusterSpec;
    model::TransformerSpec toy;
    std::unique_ptr<Profiler> profiler;
    placement::ModelPlacement overlapping;
};

TEST_F(PartialInferenceFixture, GraphCarriesFlowThroughOverlap)
{
    placement::PlacementGraph graph(clusterSpec, *profiler,
                                    overlapping);
    EXPECT_GT(graph.maxThroughput(), 0.0);
}

TEST_F(PartialInferenceFixture, SchedulerBuildsPartialStages)
{
    placement::PlacementGraph graph(clusterSpec, *profiler,
                                    overlapping);
    scheduler::Topology topo(clusterSpec, *profiler, overlapping,
                             graph);
    scheduler::HelixScheduler sched(topo);
    class Ctx : public scheduler::SchedulerContext
    {
      public:
        int queueLength(int) const override { return 0; }
        double recentThroughput(int) const override { return 0.0; }
        double kvUsedBytes(int) const override { return 0.0; }
    } ctx;
    trace::Request req{0, 0.0, 64, 8};
    auto pipeline = sched.schedule(req, ctx);
    ASSERT_TRUE(pipeline.has_value());
    ASSERT_EQ(pipeline->size(), 3u);
    // Stage 2 computes only [6,10): partial inference on node 1.
    EXPECT_EQ((*pipeline)[1].node, 1);
    EXPECT_EQ((*pipeline)[1].startLayer, 6);
    EXPECT_EQ((*pipeline)[1].endLayer, 10);
    // Stage 3 computes only [10,12) although node 2 holds [8,12).
    EXPECT_EQ((*pipeline)[2].startLayer, 10);
    EXPECT_EQ((*pipeline)[2].endLayer, 12);
    EXPECT_TRUE(scheduler::pipelineValid(*pipeline, toy.numLayers));
}

TEST_F(PartialInferenceFixture, SimulationCompletesRequests)
{
    placement::PlacementGraph graph(clusterSpec, *profiler,
                                    overlapping);
    scheduler::Topology topo(clusterSpec, *profiler, overlapping,
                             graph);
    scheduler::HelixScheduler sched(topo);
    sim::SimConfig config;
    config.warmupSeconds = 0.0;
    config.measureSeconds = 60.0;
    sim::ClusterSimulator sim(clusterSpec, *profiler, overlapping,
                              sched, config);
    trace::LengthModel lengths;
    lengths.targetMeanPrompt = 64;
    lengths.maxPromptLen = 128;
    lengths.targetMeanOutput = 16;
    lengths.maxOutputLen = 32;
    trace::TraceGenerator gen(21, lengths);
    trace::PoissonArrivals arrivals(2.0);
    auto metrics = sim.run(gen.generateCount(40, arrivals));
    EXPECT_GT(metrics.requestsCompleted, 0);
    EXPECT_GT(metrics.decodeThroughput, 0.0);
}

TEST_F(PartialInferenceFixture, MilpCarriesFlowThroughOverlap)
{
    placement::MilpFormulation formulation(clusterSpec, *profiler);
    // The cond1/cond2 auxiliaries let the overlapping placement carry
    // flow in the encoded warm start.
    auto values = formulation.encodePlacement(overlapping);
    EXPECT_TRUE(formulation.problem().isFeasible(values, 1e-4));
    double objective = formulation.problem().objectiveValue(values);
    EXPECT_GT(objective, 0.0);
}

TEST_F(PartialInferenceFixture, ExactTilingCarriesFlow)
{
    // Exact tiling (e_i == s_j) is the rule's boundary case.
    placement::ModelPlacement exact;
    exact.nodes = {{0, 4}, {4, 4}, {8, 4}};
    placement::PlacementGraph graph(clusterSpec, *profiler, exact);
    EXPECT_GT(graph.maxThroughput(), 0.0);
}

TEST(PartialInferenceSearch, PlannerCoversAClusterThatForcesOverlap)
{
    // A cluster whose VRAM forces overlap: two big nodes and one
    // small helper. The planner must produce a valid covering
    // placement that carries flow.
    ClusterSpec clus;
    clus.addNode({"l4-0", cluster::gpus::l4(), 1, 0});
    clus.addNode({"l4-1", cluster::gpus::l4(), 1, 0});
    clus.addNode({"t4-0", cluster::gpus::t4(), 1, 0});
    clus.setUniformLinks(10e9, 1e-3);
    model::TransformerSpec toy = model::catalog::llama30b();
    toy.numLayers = 24;
    Profiler prof(toy);

    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = 2.0;
    config.seed = 7;

    placement::HelixPlanner planner(config);
    placement::ModelPlacement p = planner.plan(clus, prof);
    EXPECT_TRUE(placement::placementValid(p, clus, prof));
    EXPECT_GT(planner.report().bestThroughput, 0.0);
}

} // namespace
} // namespace helix
