/**
 * @file
 * Tests for the scheduling module: IWRR proportional share and
 * interleaving, topology construction, KV estimation/masking, the
 * Helix per-request pipeline walk, baseline walk policies, and fixed
 * pipeline derivation.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "cluster/cluster.h"
#include "cluster/profiler.h"
#include "model/transformer.h"
#include "placement/placement_graph.h"
#include "scheduler/iwrr.h"
#include "scheduler/scheduler.h"

namespace helix {
namespace scheduler {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Profiler;

TEST(Iwrr, ProportionalShare)
{
    IwrrScheduler iwrr({10, 20, 30}, {1.0, 2.0, 3.0});
    std::map<int, int> counts;
    for (int i = 0; i < 6000; ++i)
        ++counts[iwrr.pick()];
    EXPECT_EQ(counts[10], 1000);
    EXPECT_EQ(counts[20], 2000);
    EXPECT_EQ(counts[30], 3000);
}

TEST(Iwrr, InterleavesRatherThanBursts)
{
    // With weights 1:1, picks must alternate.
    IwrrScheduler iwrr({0, 1}, {1.0, 1.0});
    int prev = iwrr.pick();
    for (int i = 0; i < 10; ++i) {
        int next = iwrr.pick();
        EXPECT_NE(next, prev);
        prev = next;
    }
}

TEST(Iwrr, HeavyCandidateNeverStarvesLight)
{
    IwrrScheduler iwrr({0, 1}, {99.0, 1.0});
    bool saw_light = false;
    for (int i = 0; i < 100; ++i)
        saw_light |= iwrr.pick() == 1;
    EXPECT_TRUE(saw_light);
}

TEST(Iwrr, MaskSkipsCandidates)
{
    IwrrScheduler iwrr({7, 8, 9}, {1.0, 1.0, 1.0});
    std::vector<bool> mask{true, false, true};
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(iwrr.pick(&mask), 8);
}

TEST(Iwrr, AllMaskedReturnsMinusOne)
{
    IwrrScheduler iwrr({1, 2}, {1.0, 1.0});
    std::vector<bool> mask{true, true};
    EXPECT_EQ(iwrr.pick(&mask), -1);
}

TEST(Iwrr, EmptySetReturnsMinusOne)
{
    IwrrScheduler iwrr;
    EXPECT_EQ(iwrr.pick(), -1);
}

TEST(PipelineValidity, CoversLayersInOrder)
{
    Pipeline good{{0, 0, 4}, {1, 4, 8}};
    EXPECT_TRUE(pipelineValid(good, 8));
    Pipeline gap{{0, 0, 4}, {1, 5, 8}};
    EXPECT_FALSE(pipelineValid(gap, 8));
    Pipeline short_pipe{{0, 0, 4}};
    EXPECT_FALSE(pipelineValid(short_pipe, 8));
    EXPECT_FALSE(pipelineValid({}, 8));
    Pipeline empty_stage{{0, 0, 0}, {1, 0, 8}};
    EXPECT_FALSE(pipelineValid(empty_stage, 8));
}

/** Test fixture with a small two-tier topology. */
class SchedulerFixture : public ::testing::Test
{
  protected:
    SchedulerFixture()
    {
        for (int i = 0; i < 4; ++i) {
            NodeSpec node;
            node.name = "t4-" + std::to_string(i);
            node.gpu = cluster::gpus::t4();
            clusterSpec.addNode(std::move(node));
        }
        clusterSpec.setUniformLinks(10e9, 1e-3);
        toy = model::catalog::llama30b();
        toy.numLayers = 12;
        profiler = std::make_unique<Profiler>(toy);
        // Two parallel 2-stage pipelines: (0,1) and (2,3).
        placement.nodes = {{0, 6}, {6, 6}, {0, 6}, {6, 6}};
        graph = std::make_unique<placement::PlacementGraph>(
            clusterSpec, *profiler, placement);
        topo = std::make_unique<Topology>(clusterSpec, *profiler,
                                          placement, *graph);
    }

    ClusterSpec clusterSpec;
    model::TransformerSpec toy;
    std::unique_ptr<Profiler> profiler;
    placement::ModelPlacement placement;
    std::unique_ptr<placement::PlacementGraph> graph;
    std::unique_ptr<Topology> topo;
};

/** Minimal SchedulerContext stub. */
class StubContext : public SchedulerContext
{
  public:
    int queueLength(int node) const override
    {
        return queues.count(node) ? queues.at(node) : 0;
    }
    double recentThroughput(int node) const override
    {
        return rates.count(node) ? rates.at(node) : 0.0;
    }
    double kvUsedBytes(int node) const override
    {
        return kv.count(node) ? kv.at(node) : 0.0;
    }

    std::map<int, int> queues;
    std::map<int, double> rates;
    std::map<int, double> kv;
};

TEST_F(SchedulerFixture, TopologyEdgesMatchValidConnections)
{
    // Coordinator reaches both entry nodes; entries reach both tails.
    auto coord_out = topo->outEdges(cluster::kCoordinator);
    EXPECT_EQ(coord_out.size(), 2u);
    auto n0_out = topo->outEdges(0);
    EXPECT_EQ(n0_out.size(), 2u); // nodes 1 and 3 hold [6,12)
    auto n1_out = topo->outEdges(1);
    ASSERT_EQ(n1_out.size(), 1u);
    EXPECT_EQ(n1_out[0], cluster::kCoordinator);
    EXPECT_GT(topo->maxFlow(), 0.0);
}

TEST_F(SchedulerFixture, HelixBuildsValidPipelines)
{
    HelixScheduler sched(*topo);
    StubContext ctx;
    trace::Request req{0, 0.0, 100, 50};
    for (int i = 0; i < 50; ++i) {
        auto pipeline = sched.schedule(req, ctx);
        ASSERT_TRUE(pipeline.has_value());
        EXPECT_TRUE(pipelineValid(*pipeline, toy.numLayers));
        sched.onRequestAdmitted(req, *pipeline);
        sched.onRequestFinished(req, *pipeline);
    }
}

TEST_F(SchedulerFixture, HelixSpreadsLoadByFlow)
{
    HelixScheduler sched(*topo);
    StubContext ctx;
    trace::Request req{0, 0.0, 100, 50};
    std::map<int, int> entry_counts;
    for (int i = 0; i < 100; ++i) {
        auto pipeline = sched.schedule(req, ctx);
        ASSERT_TRUE(pipeline.has_value());
        ++entry_counts[pipeline->front().node];
    }
    // Symmetric topology: both entries used roughly equally.
    EXPECT_GT(entry_counts[0], 30);
    EXPECT_GT(entry_counts[2], 30);
}

TEST_F(SchedulerFixture, HelixMasksFullNodes)
{
    HelixScheduler sched(*topo);
    StubContext ctx;
    // With every node's written KV full the estimate decides. Admit
    // requests until the scheduler reports congestion.
    for (int node = 0; node < topo->numNodes(); ++node)
        ctx.kv[node] = topo->kvCapacityBytes(node);
    trace::Request big{0, 0.0, 2000, 50};
    std::vector<Pipeline> admitted;
    while (admitted.size() < 10000) {
        auto pipeline = sched.schedule(big, ctx);
        if (!pipeline)
            break;
        sched.onRequestAdmitted(big, *pipeline);
        admitted.push_back(std::move(*pipeline));
    }
    EXPECT_GT(admitted.size(), 0u);
    EXPECT_LT(admitted.size(), 10000u); // eventually masked
    // Full by the estimate alone, the nodes take requests again.
    std::map<int, double> written_full;
    std::swap(ctx.kv, written_full);
    EXPECT_TRUE(sched.schedule(big, ctx).has_value());
    std::swap(ctx.kv, written_full);
    // Finishing the admitted requests frees capacity again.
    for (const Pipeline &pipeline : admitted)
        sched.onRequestFinished(big, pipeline);
    EXPECT_TRUE(sched.schedule(big, ctx).has_value());
}

TEST_F(SchedulerFixture, KvEstimatorArithmetic)
{
    KvEstimator kv(*topo);
    trace::Request req{0, 0.0, 200, 0};
    PipelineStage stage{0, 0, 6};
    // (prompt + avgOut/2) tokens * kv bytes per token-layer * layers.
    double expected = (200.0 + 0.5 * kAvgOutputLen) *
                      topo->kvBytesPerTokenPerLayer() * 6;
    EXPECT_DOUBLE_EQ(kv.requestBytes(req, stage), expected);
    EXPECT_TRUE(kv.admits(0, expected));
    kv.reserve(0, expected);
    EXPECT_DOUBLE_EQ(kv.estimatedUsage(0), expected);
    kv.release(0, expected);
    EXPECT_DOUBLE_EQ(kv.estimatedUsage(0), 0.0);
    // Release below zero clamps.
    kv.release(0, 100.0);
    EXPECT_DOUBLE_EQ(kv.estimatedUsage(0), 0.0);
    // Admission stops at the high-water mark, on either estimate.
    const double limit = kKvHighWaterMark * topo->kvCapacityBytes(0);
    EXPECT_TRUE(kv.admits(0, limit));
    EXPECT_FALSE(kv.admits(0, limit * 1.001));
    EXPECT_TRUE(kv.admitsWritten(0, 0.5 * limit, 0.5 * limit));
    EXPECT_FALSE(kv.admitsWritten(0, 0.5 * limit, 0.501 * limit));
}

TEST_F(SchedulerFixture, RandomWalkProducesValidPipelines)
{
    WalkScheduler sched(*topo, WalkPolicy::Random);
    StubContext ctx;
    trace::Request req{0, 0.0, 100, 50};
    for (int i = 0; i < 50; ++i) {
        auto pipeline = sched.schedule(req, ctx);
        ASSERT_TRUE(pipeline.has_value());
        EXPECT_TRUE(pipelineValid(*pipeline, toy.numLayers));
    }
}

TEST_F(SchedulerFixture, ShortestQueuePrefersIdleNode)
{
    WalkScheduler sched(*topo, WalkPolicy::ShortestQueue);
    StubContext ctx;
    ctx.queues[0] = 50;
    ctx.queues[2] = 0;
    trace::Request req{0, 0.0, 100, 50};
    for (int i = 0; i < 10; ++i) {
        auto pipeline = sched.schedule(req, ctx);
        ASSERT_TRUE(pipeline.has_value());
        EXPECT_EQ(pipeline->front().node, 2);
    }
}

TEST_F(SchedulerFixture, ThroughputProportionalFavorsFastNode)
{
    WalkScheduler sched(*topo, WalkPolicy::ThroughputProportional);
    StubContext ctx;
    ctx.rates[0] = 1000.0;
    ctx.rates[2] = 10.0;
    trace::Request req{0, 0.0, 100, 50};
    int fast = 0;
    for (int i = 0; i < 200; ++i) {
        auto pipeline = sched.schedule(req, ctx);
        ASSERT_TRUE(pipeline.has_value());
        fast += pipeline->front().node == 0;
    }
    EXPECT_GT(fast, 150);
}

TEST_F(SchedulerFixture, SchedulerNames)
{
    EXPECT_EQ(HelixScheduler(*topo).name(), "helix");
    EXPECT_EQ(
        WalkScheduler(*topo, WalkPolicy::ThroughputProportional).name(),
        "swarm");
    EXPECT_EQ(WalkScheduler(*topo, WalkPolicy::Random).name(),
              "random");
    EXPECT_EQ(WalkScheduler(*topo, WalkPolicy::ShortestQueue).name(),
              "shortest-queue");
}

TEST_F(SchedulerFixture, DerivePipelinesFindsBothChains)
{
    auto pipelines = derivePipelines(placement, toy.numLayers);
    ASSERT_EQ(pipelines.size(), 2u);
    for (const auto &pipeline : pipelines)
        EXPECT_TRUE(pipelineValid(pipeline, toy.numLayers));
    // Chains are disjoint.
    std::set<int> used;
    for (const auto &pipeline : pipelines) {
        for (const auto &stage : pipeline) {
            EXPECT_FALSE(used.count(stage.node));
            used.insert(stage.node);
        }
    }
}

TEST_F(SchedulerFixture, DerivePipelinesIgnoresIncompleteChain)
{
    placement::ModelPlacement partial;
    partial.nodes = {{0, 6}, {0, 0}, {0, 6}, {6, 6}};
    auto pipelines = derivePipelines(partial, toy.numLayers);
    EXPECT_EQ(pipelines.size(), 1u);
}

TEST_F(SchedulerFixture, FixedPipelineRoundRobins)
{
    auto pipelines = derivePipelines(placement, toy.numLayers);
    FixedPipelineScheduler sched(*topo, pipelines);
    StubContext ctx;
    trace::Request req{0, 0.0, 100, 50};
    auto p1 = sched.schedule(req, ctx);
    auto p2 = sched.schedule(req, ctx);
    ASSERT_TRUE(p1 && p2);
    EXPECT_NE(p1->front().node, p2->front().node);
}

TEST_F(SchedulerFixture, FixedPipelineMasksFullPipeline)
{
    auto pipelines = derivePipelines(placement, toy.numLayers);
    FixedPipelineScheduler sched(*topo, pipelines);
    StubContext ctx;
    trace::Request big{0, 0.0, 2000, 50};
    int admitted = 0;
    while (admitted < 10000) {
        auto pipeline = sched.schedule(big, ctx);
        if (!pipeline)
            break;
        sched.onRequestAdmitted(big, *pipeline);
        ++admitted;
    }
    EXPECT_GT(admitted, 0);
    EXPECT_LT(admitted, 10000);
}

} // namespace
} // namespace scheduler
} // namespace helix
