/**
 * @file
 * Tests for dynamic topology adaptation under churn: TopologyManager
 * re-solves, scheduler weight swaps (the stale-IWRR regression), the
 * fail/recover event schedule in the simulator, flow-event logging,
 * determinism across thread counts, and the recentThroughput decay
 * fix.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "cluster/cluster.h"
#include "cluster/generator.h"
#include "cluster/profiler.h"
#include "core/helix.h"
#include "exp/spec.h"
#include "io/spec.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "scheduler/scheduler.h"
#include "scheduler/topology_manager.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace helix {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Profiler;

/**
 * The 4-node toy shared with the scheduler/simulator tests: two
 * parallel 2-stage pipelines (0,1) and (2,3) over a 12-layer model.
 * With partial inference the cross connections 0->3 and 2->1 also
 * exist, so failing node 1 halves the max flow (node 3's compute
 * becomes the bottleneck) instead of just killing one pipeline.
 */
class ChurnFixture : public ::testing::Test
{
  protected:
    ChurnFixture()
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
        placement.nodes = {{0, 6}, {6, 6}, {0, 6}, {6, 6}};
        graph = std::make_unique<placement::PlacementGraph>(
            clusterSpec, *profiler, placement);
        topo = std::make_unique<scheduler::Topology>(
            clusterSpec, *profiler, placement, *graph);
    }

    std::vector<trace::Request>
    makeRequests(int count, double rate, uint64_t seed = 3)
    {
        trace::LengthModel lengths;
        lengths.targetMeanPrompt = 120;
        lengths.maxPromptLen = 512;
        lengths.targetMeanOutput = 40;
        lengths.maxOutputLen = 128;
        trace::TraceGenerator gen(seed, lengths);
        trace::PoissonArrivals arrivals(rate);
        return gen.generateCount(count, arrivals);
    }

    /** Placement with the given nodes masked out (count = 0). */
    placement::ModelPlacement
    maskedPlacement(const std::set<int> &dead) const
    {
        placement::ModelPlacement masked = placement;
        for (int node : dead)
            masked[node] = placement::NodePlacement{0, 0};
        return masked;
    }

    /**
     * Check per-vertex out-flows @p out (see outFlows) against a fresh
     * cold solve of the placement without @p dead. The max flow is not
     * unique here: with node 1 dead, nodes 0 and 2 are interchangeable
     * replicas of layers [0, 6) feeding node 3, so a warm-start repair
     * and a fresh solve may split the flow between them differently.
     * Both must still carry the same flow value, the same flow through
     * each layer interval, and no flow through a dead node.
     */
    void
    expectSameFlowPerStage(const std::vector<double> &out,
                           const std::set<int> &dead) const
    {
        placement::PlacementGraph fresh(clusterSpec, *profiler,
                                        maskedPlacement(dead));
        EXPECT_EQ(out[0], fresh.maxThroughput());
        std::map<int, double> ours;
        std::map<int, double> theirs;
        for (int node = 0; node < static_cast<int>(placement.size());
             ++node) {
            if (dead.count(node) != 0) {
                EXPECT_EQ(out[node + 1], 0.0) << "node " << node;
                continue;
            }
            ours[placement[node].start] += out[node + 1];
            theirs[placement[node].start] += fresh.nodeFlow(node);
        }
        ASSERT_EQ(ours.size(), theirs.size());
        for (const auto &[start, flow] : theirs)
            EXPECT_EQ(ours[start], flow) << "layers from " << start;
    }

    ClusterSpec clusterSpec;
    model::TransformerSpec toy;
    std::unique_ptr<Profiler> profiler;
    placement::ModelPlacement placement;
    std::unique_ptr<placement::PlacementGraph> graph;
    std::unique_ptr<scheduler::Topology> topo;
};

/** SchedulerContext stub with an explicit dead-node set. */
class LivenessContext : public scheduler::SchedulerContext
{
  public:
    int queueLength(int) const override { return 0; }
    double recentThroughput(int) const override { return 0.0; }
    double kvUsedBytes(int) const override { return 0.0; }
    bool
    nodeAlive(int node) const override
    {
        return dead.find(node) == dead.end();
    }

    std::set<int> dead;
};

/** Every edge flow of @p t must equal the flow on @p fresh. */
void
expectFlowsMatch(const scheduler::Topology &t,
                 placement::PlacementGraph &fresh)
{
    EXPECT_EQ(t.maxFlow(), fresh.maxThroughput());
    for (int from = cluster::kCoordinator; from < t.numNodes();
         ++from) {
        const auto out = t.outEdges(from);
        for (size_t k = 0; k < out.size(); ++k) {
            EXPECT_EQ(t.flow(out.firstSlot + k),
                      fresh.connectionFlow(from, out[k]))
                << "edge " << from << " -> " << out[k];
        }
    }
}

/** Flow out of every vertex of @p t, [vertex + 1]; 0 = coordinator,
 *  whose out-flow is the max-flow value. */
std::vector<double>
outFlows(const scheduler::Topology &t)
{
    std::vector<double> out(t.numNodes() + 1, 0.0);
    for (int from = cluster::kCoordinator; from < t.numNodes(); ++from) {
        const auto row = t.outEdges(from);
        for (size_t k = 0; k < row.size(); ++k)
            out[from + 1] += t.flow(row.firstSlot + k);
    }
    return out;
}

/** outFlows of the IWRR weights @p sched routes by. */
std::vector<double>
outFlows(const scheduler::HelixScheduler &sched, int num_nodes)
{
    std::vector<double> out(num_nodes + 1, 0.0);
    for (int from = cluster::kCoordinator; from < num_nodes; ++from) {
        for (double weight : sched.selector(from).weights())
            out[from + 1] += weight;
    }
    return out;
}

/** Flow on the coordinator -> @p node connection of @p t. */
double
coordFlow(const scheduler::Topology &t, int node)
{
    const auto out = t.outEdges(cluster::kCoordinator);
    for (size_t k = 0; k < out.size(); ++k) {
        if (out[k] == node)
            return t.flow(out.firstSlot + k);
    }
    return 0.0;
}

/** IWRR weight @p sched gives the coordinator -> @p node hop. */
double
coordFlow(const scheduler::HelixScheduler &sched, int node)
{
    const auto &entry = sched.selector(cluster::kCoordinator);
    for (size_t c = 0; c < entry.size(); ++c) {
        if (entry.candidates()[c] == node)
            return entry.weights()[c];
    }
    return 0.0;
}

/** The selectors of @p sched hold exactly the positive edge flows of
 *  @p t, as (target, flow) candidates in edge order. */
void
expectSelectorsMatch(const scheduler::HelixScheduler &sched,
                     const scheduler::Topology &t)
{
    for (int from = cluster::kCoordinator; from < t.numNodes(); ++from) {
        std::vector<int> ids;
        std::vector<double> weights;
        const auto out = t.outEdges(from);
        for (size_t k = 0; k < out.size(); ++k) {
            const double weight = t.flow(out.firstSlot + k);
            if (weight > 0.0) {
                ids.push_back(out[k]);
                weights.push_back(weight);
            }
        }
        EXPECT_EQ(sched.selector(from).candidates(), ids)
            << "vertex " << from;
        EXPECT_EQ(sched.selector(from).weights(), weights)
            << "vertex " << from;
    }
}

// --- TopologyManager -------------------------------------------------

TEST_F(ChurnFixture, TopologyManagerResolvesSurvivingSubgraph)
{
    // The cold oracle: every event re-solves the masked graph.
    scheduler::TopologyManager manager(clusterSpec, *profiler,
                                       placement, {},
                                       scheduler::ResolveMode::Cold);
    EXPECT_EQ(manager.numSolves(), 1);
    EXPECT_DOUBLE_EQ(manager.currentFlow(), topo->maxFlow());

    double masked_flow = manager.setNodeAlive(1, false);
    EXPECT_EQ(manager.numSolves(), 2);
    EXPECT_FALSE(manager.nodeAlive(1));
    EXPECT_LT(masked_flow, topo->maxFlow());
    EXPECT_GT(masked_flow, 0.0);

    // The manager's topology equals a fresh solve on the surviving
    // subgraph, edge for edge.
    placement::PlacementGraph fresh(clusterSpec, *profiler,
                                    maskedPlacement({1}));
    (void)fresh.maxThroughput();
    expectFlowsMatch(manager.current(), fresh);
    // The dead node has no vertices in the surviving subgraph.
    EXPECT_EQ(manager.current().outEdges(1).size(), 0u);
    EXPECT_DOUBLE_EQ(coordFlow(manager.current(), 1), 0.0);

    // Recovery restores the original solution exactly.
    double restored = manager.setNodeAlive(1, true);
    EXPECT_EQ(manager.numSolves(), 3);
    EXPECT_DOUBLE_EQ(restored, topo->maxFlow());
    placement::PlacementGraph full(clusterSpec, *profiler, placement);
    (void)full.maxThroughput();
    expectFlowsMatch(manager.current(), full);

    // Redundant liveness writes do not re-solve.
    manager.setNodeAlive(1, true);
    EXPECT_EQ(manager.numSolves(), 3);
}

/**
 * A Repair-mode manager drained to nothing: failing every node that
 * holds layers leaves no flow on any connection or node, exactly, and
 * recovering them all restores a cold solve's value exactly.
 */
TEST(TopologyDrain, FailingEveryHolderLeavesExactlyZeroFlow)
{
    cluster::gen::GeneratorConfig gen_config;
    gen_config.preset = "geo-distributed";
    gen_config.numNodes = 64;
    const ClusterSpec clus = *cluster::gen::generate(gen_config);
    Profiler prof(model::catalog::llama30b());
    const placement::ModelPlacement placement =
        placement::SwarmPlanner().plan(clus, prof);
    scheduler::TopologyManager manager(clus, prof, placement, {},
                                       scheduler::ResolveMode::Repair);
    std::vector<int> holders;
    for (int i = 0; i < clus.numNodes(); ++i) {
        if (placement[i].count > 0)
            holders.push_back(i);
    }
    ASSERT_FALSE(holders.empty());
    ASSERT_GT(manager.currentFlow(), 0.0);

    for (int node : holders)
        (void)manager.setNodeAlive(node, false);
    EXPECT_EQ(manager.currentFlow(), 0.0);
    const scheduler::Topology &drained = manager.current();
    for (int from = cluster::kCoordinator; from < drained.numNodes();
         ++from) {
        const auto row = drained.outEdges(from);
        for (size_t k = 0; k < row.size(); ++k) {
            EXPECT_EQ(drained.flow(row.firstSlot + k), 0.0)
                << "edge " << from << " -> " << row[k];
        }
    }
    for (int i = 0; i < clus.numNodes(); ++i)
        EXPECT_EQ(manager.plannedNodeFlow(i), 0.0) << "node " << i;

    for (int node : holders)
        (void)manager.setNodeAlive(node, true);
    placement::PlacementGraph fresh(clus, prof, placement);
    EXPECT_EQ(manager.currentFlow(), fresh.maxThroughput());
}

// --- Stale-IWRR regression (the seed bug) ----------------------------

TEST_F(ChurnFixture, HelixWeightsMatchFreshSolveAfterFailure)
{
    scheduler::HelixScheduler sched(*topo);
    scheduler::TopologyManager manager(clusterSpec, *profiler,
                                       placement);
    LivenessContext ctx;
    ctx.dead.insert(1);

    // The regression: without a flow swap the scheduler still
    // carries the pre-failure flow solution, whose total and
    // proportions are stale for the surviving subgraph.
    manager.setNodeAlive(1, false);
    expectSelectorsMatch(sched, *topo);
    EXPECT_LT(manager.currentFlow(), topo->maxFlow());

    // The fix: the swap hands the scheduler the re-solved flows, so
    // its IWRR weights are a max flow of the surviving subgraph: the
    // value and per-stage flows of a fresh solve.
    sched.onTopologyChange(manager.current());
    expectSelectorsMatch(sched, manager.current());
    expectSameFlowPerStage(outFlows(manager.current()), {1});

    // Post-failure routing proportions follow the re-solved flows:
    // the IWRR entry split matches the coordinator edge flows of the
    // surviving subgraph.
    const int picks = 6000;
    std::map<int, int> entries;
    trace::Request req{0, 0.0, 100, 50};
    for (int i = 0; i < picks; ++i) {
        auto pipeline = sched.schedule(req, ctx);
        ASSERT_TRUE(pipeline.has_value());
        for (const auto &stage : *pipeline)
            EXPECT_NE(stage.node, 1);
        ++entries[pipeline->front().node];
    }
    double f0 = coordFlow(sched, 0);
    double f2 = coordFlow(sched, 2);
    ASSERT_GT(f0 + f2, 0.0);
    EXPECT_NEAR(static_cast<double>(entries[0]) / picks,
                f0 / (f0 + f2), 0.02);
    EXPECT_NEAR(static_cast<double>(entries[2]) / picks,
                f2 / (f0 + f2), 0.02);
}

TEST_F(ChurnFixture, RecoveryRestoresRoutingThroughRejoinedNode)
{
    scheduler::HelixScheduler sched(*topo);
    scheduler::TopologyManager manager(clusterSpec, *profiler,
                                       placement);
    LivenessContext ctx;

    // Fail node 1, then bring it back.
    ctx.dead.insert(1);
    manager.setNodeAlive(1, false);
    sched.onTopologyChange(manager.current());
    ctx.dead.erase(1);
    manager.setNodeAlive(1, true);
    sched.onTopologyChange(manager.current());

    // Weights are the full-topology solution again...
    placement::PlacementGraph full(clusterSpec, *profiler, placement);
    (void)full.maxThroughput();
    expectFlowsMatch(manager.current(), full);
    expectSelectorsMatch(sched, manager.current());

    // ...and requests route through the rejoined node again.
    trace::Request req{0, 0.0, 100, 50};
    int through_node1 = 0;
    for (int i = 0; i < 100; ++i) {
        auto pipeline = sched.schedule(req, ctx);
        ASSERT_TRUE(pipeline.has_value());
        for (const auto &stage : *pipeline)
            through_node1 += stage.node == 1;
    }
    EXPECT_GT(through_node1, 0);
}

// --- Simulator: fail/recover schedules -------------------------------

TEST_F(ChurnFixture, SimulatorLogsResolvedFlowPerChurnEvent)
{
    scheduler::HelixScheduler sched(*topo);
    sim::SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 60.0;
    config.churnEvents = {
        {sim::ChurnEvent::Kind::Fail, 1, 5.0},
        {sim::ChurnEvent::Kind::Recover, 1, 20.0},
    };
    sim::ClusterSimulator sim(clusterSpec, *profiler, placement,
                              sched, config);
    auto metrics = sim.run(makeRequests(300, 8.0));

    ASSERT_EQ(metrics.flowEvents.size(), 2u);
    EXPECT_EQ(metrics.flowEvents[0].kind, sim::ChurnEvent::Kind::Fail);
    EXPECT_EQ(metrics.flowEvents[0].node, 1);
    EXPECT_DOUBLE_EQ(metrics.flowEvents[0].time, 5.0);
    EXPECT_EQ(metrics.flowEvents[1].kind,
              sim::ChurnEvent::Kind::Recover);
    EXPECT_DOUBLE_EQ(metrics.flowEvents[1].time, 20.0);
    // The fail event's flow is the surviving subgraph's max flow; the
    // recover event restores the full topology's exactly.
    EXPECT_LT(metrics.flowEvents[0].flow, metrics.flowEvents[1].flow);
    EXPECT_EQ(metrics.flowEvents[1].flow, topo->maxFlow());
    // The scheduler ends the run routing by the restored max flow,
    // through the rejoined node again.
    const std::vector<double> out = outFlows(sched, topo->numNodes());
    EXPECT_EQ(out[0], topo->maxFlow());
    EXPECT_GT(out[1 + 1], 0.0);
    EXPECT_TRUE(sim.nodeAlive(1));
    // Node 1 executed batches after rejoining.
    EXPECT_GT(metrics.nodeStats[1].batches, 0);
}

TEST_F(ChurnFixture, SingleFailureResolvesToFreshSolve)
{
    scheduler::HelixScheduler sched(*topo);
    sim::SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 40.0;
    config.churnEvents = {{sim::ChurnEvent::Kind::Fail, 1, 10.0}};
    sim::ClusterSimulator sim(clusterSpec, *profiler, placement,
                              sched, config);
    auto metrics = sim.run(makeRequests(200, 5.0));
    ASSERT_EQ(metrics.flowEvents.size(), 1u);
    EXPECT_EQ(metrics.flowEvents[0].kind, sim::ChurnEvent::Kind::Fail);
    EXPECT_LT(metrics.flowEvents[0].flow, topo->maxFlow());
    // The scheduler's live weights are a max flow of the surviving
    // subgraph (the stale-weight regression).
    expectSameFlowPerStage(outFlows(sched, topo->numNodes()), {1});
}

TEST_F(ChurnFixture, FailThenRecoverCompletesMoreThanFailOnly)
{
    // Saturating load so completions are capacity-bound: the run
    // ends with a backlog either way, so with the node back the
    // cluster serves strictly more of it.
    auto requests = makeRequests(2500, 60.0, 11);

    scheduler::HelixScheduler fail_sched(*topo);
    sim::SimConfig fail_only;
    fail_only.warmupSeconds = 2.0;
    fail_only.measureSeconds = 30.0;
    fail_only.churnEvents = {{sim::ChurnEvent::Kind::Fail, 1, 5.0}};
    sim::ClusterSimulator fail_sim(clusterSpec, *profiler, placement,
                                   fail_sched, fail_only);
    auto fail_metrics = fail_sim.run(requests);

    scheduler::HelixScheduler recover_sched(*topo);
    sim::SimConfig fail_recover = fail_only;
    fail_recover.churnEvents.push_back(
        {sim::ChurnEvent::Kind::Recover, 1, 12.0});
    sim::ClusterSimulator recover_sim(clusterSpec, *profiler,
                                      placement, recover_sched,
                                      fail_recover);
    auto recover_metrics = recover_sim.run(requests);

    EXPECT_GT(fail_metrics.requestsCompleted, 0);
    EXPECT_GT(recover_metrics.requestsCompleted,
              fail_metrics.requestsCompleted);
    // Conservation holds in both runs.
    for (const auto *m : {&fail_metrics, &recover_metrics}) {
        EXPECT_LE(m->requestsCompleted, m->requestsAdmitted);
        EXPECT_LE(m->requestsAdmitted + m->requestsRejected,
                  m->requestsArrived);
    }
}

TEST_F(ChurnFixture, RecoveryRightAfterFailureIsEpochSafe)
{
    // Fail and recover within a batch's duration: the BatchDone of
    // the old life must be recognized as stale (node epoch), not
    // double-processed against the recovered node's state.
    scheduler::HelixScheduler sched(*topo);
    sim::SimConfig config;
    config.warmupSeconds = 1.0;
    config.measureSeconds = 40.0;
    config.churnEvents = {
        {sim::ChurnEvent::Kind::Fail, 1, 0.5},
        {sim::ChurnEvent::Kind::Recover, 1, 0.55},
        {sim::ChurnEvent::Kind::Fail, 3, 5.0},
        {sim::ChurnEvent::Kind::Recover, 3, 5.01},
    };
    sim::ClusterSimulator sim(clusterSpec, *profiler, placement,
                              sched, config);
    auto metrics = sim.run(makeRequests(200, 8.0));
    EXPECT_EQ(metrics.flowEvents.size(), 4u);
    EXPECT_TRUE(sim.nodeAlive(1));
    EXPECT_TRUE(sim.nodeAlive(3));
    EXPECT_GT(metrics.requestsCompleted, 0);
    EXPECT_LE(metrics.requestsCompleted, metrics.requestsAdmitted);
    EXPECT_LE(metrics.requestsAdmitted + metrics.requestsRejected,
              metrics.requestsArrived);
}

TEST_F(ChurnFixture, TransientOutageHoldsBacklogInsteadOfRejecting)
{
    // A single non-replicated pipeline (nodes 2 and 3 unused): while
    // node 1 is down, no request is schedulable and the cluster goes
    // idle. The idle-cluster reject heuristic must not fire — a
    // scheduled recover event makes the backlog servable again, so
    // requests are delayed, not lost.
    placement::ModelPlacement chain;
    chain.nodes = {{0, 6}, {6, 6}, {0, 0}, {0, 0}};
    placement::PlacementGraph chain_graph(clusterSpec, *profiler,
                                          chain);
    scheduler::Topology chain_topo(clusterSpec, *profiler, chain,
                                   chain_graph);
    scheduler::HelixScheduler sched(chain_topo);
    sim::SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 60.0;
    config.churnEvents = {
        {sim::ChurnEvent::Kind::Fail, 1, 5.0},
        {sim::ChurnEvent::Kind::Recover, 1, 20.0},
    };
    sim::ClusterSimulator sim(clusterSpec, *profiler, chain, sched,
                              config);
    auto metrics = sim.run(makeRequests(80, 4.0));
    EXPECT_EQ(metrics.requestsRejected, 0);
    // Requests arriving during the outage complete after recovery.
    EXPECT_GT(metrics.requestsCompleted, 0);
    EXPECT_GT(metrics.nodeStats[1].batches, 0);
}

TEST_F(ChurnFixture, SchedulerOutlivesSimulatorAfterChurn)
{
    // The scheduler keeps the re-solved flows, never the topology
    // they came in, so using it after the simulator (and its
    // TopologyManager) is destroyed must be safe — ASan/TSan guard
    // the regression.
    scheduler::HelixScheduler sched(*topo);
    {
        sim::SimConfig config;
        config.warmupSeconds = 2.0;
        config.measureSeconds = 30.0;
        config.churnEvents = {{sim::ChurnEvent::Kind::Fail, 1, 5.0}};
        sim::ClusterSimulator sim(clusterSpec, *profiler, placement,
                                  sched, config);
        sim.run(makeRequests(100, 5.0));
    }
    expectSameFlowPerStage(outFlows(sched, topo->numNodes()), {1});
    // Every node reports alive, so only the weights keep routing off
    // node 1: stale pre-failure weights would send requests through
    // it.
    LivenessContext ctx;
    trace::Request req{0, 0.0, 100, 50};
    for (int i = 0; i < 100; ++i) {
        auto pipeline = sched.schedule(req, ctx);
        ASSERT_TRUE(pipeline.has_value());
        for (const auto &stage : *pipeline)
            EXPECT_NE(stage.node, 1);
    }
}

TEST_F(ChurnFixture, MultiEventChurnDeterministic)
{
    auto requests = makeRequests(250, 8.0, 17);
    sim::SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 40.0;
    config.churnEvents = {
        {sim::ChurnEvent::Kind::Fail, 0, 8.0},
        {sim::ChurnEvent::Kind::Recover, 0, 16.0},
        {sim::ChurnEvent::Kind::Fail, 2, 24.0},
    };

    auto run_once = [&]() {
        scheduler::HelixScheduler sched(*topo);
        sim::ClusterSimulator sim(clusterSpec, *profiler, placement,
                                  sched, config);
        return sim.run(requests);
    };
    auto m1 = run_once();
    auto m2 = run_once();
    EXPECT_EQ(m1.requestsCompleted, m2.requestsCompleted);
    EXPECT_EQ(m1.requestsRestarted, m2.requestsRestarted);
    EXPECT_EQ(m1.decodeThroughput, m2.decodeThroughput);
    ASSERT_EQ(m1.flowEvents.size(), m2.flowEvents.size());
    for (size_t i = 0; i < m1.flowEvents.size(); ++i) {
        EXPECT_EQ(m1.flowEvents[i].flow, m2.flowEvents[i].flow);
        EXPECT_EQ(m1.flowEvents[i].time, m2.flowEvents[i].time);
    }
}

// --- Simulator re-solves vs the cold oracle --------------------------

/**
 * Every re-solve the simulator logs is a warm-start repair of its
 * persistent flow network, and each must carry the max-flow value a
 * cold re-solve of the same liveness set gives: a ResolveMode::Cold
 * TopologyManager replays the logged events one by one as the oracle.
 * Overlapping failures, a window with no complete pipeline (flow 0),
 * and recoveries exercise repair's cancel and re-augment paths.
 */
TEST_F(ChurnFixture, EveryFlowEventMatchesAColdReplay)
{
    scheduler::HelixScheduler sched(*topo);
    sim::SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 60.0;
    config.churnEvents = {
        {sim::ChurnEvent::Kind::Fail, 1, 5.0},
        {sim::ChurnEvent::Kind::Fail, 2, 10.0},
        {sim::ChurnEvent::Kind::Recover, 1, 15.0},
        {sim::ChurnEvent::Kind::Fail, 0, 20.0},
        {sim::ChurnEvent::Kind::Recover, 2, 25.0},
        {sim::ChurnEvent::Kind::Recover, 0, 30.0},
        {sim::ChurnEvent::Kind::Fail, 3, 35.0},
    };
    sim::ClusterSimulator sim(clusterSpec, *profiler, placement,
                              sched, config);
    auto metrics = sim.run(makeRequests(400, 8.0));

    scheduler::TopologyManager cold(clusterSpec, *profiler, placement,
                                    {}, scheduler::ResolveMode::Cold);
    ASSERT_EQ(metrics.flowEvents.size(), config.churnEvents.size());
    for (size_t i = 0; i < metrics.flowEvents.size(); ++i) {
        const auto &event = metrics.flowEvents[i];
        EXPECT_EQ(event.kind, config.churnEvents[i].kind);
        EXPECT_EQ(event.node, config.churnEvents[i].node);
        EXPECT_EQ(event.resolveKind, sim::ResolveKind::Repair);
        double expected = cold.setNodeAlive(
            event.node, event.kind == sim::ChurnEvent::Kind::Recover);
        EXPECT_EQ(event.flow, expected) << "event " << i;
    }
    // The schedule really went through a zero-flow window.
    EXPECT_EQ(metrics.flowEvents[3].flow, 0.0);
    EXPECT_EQ(cold.numSolves(),
              1 + static_cast<int>(config.churnEvents.size()));
}

// --- Spec engine helpers -----------------------------------------------

void
expectMetricsIdentical(const sim::SimMetrics &a,
                       const sim::SimMetrics &b)
{
    EXPECT_EQ(a.decodeThroughput, b.decodeThroughput);
    EXPECT_EQ(a.promptThroughput, b.promptThroughput);
    EXPECT_EQ(a.requestsArrived, b.requestsArrived);
    EXPECT_EQ(a.requestsAdmitted, b.requestsAdmitted);
    EXPECT_EQ(a.requestsCompleted, b.requestsCompleted);
    EXPECT_EQ(a.requestsRejected, b.requestsRejected);
    EXPECT_EQ(a.requestsRestarted, b.requestsRestarted);
    EXPECT_EQ(a.decodeTokensInWindow, b.decodeTokensInWindow);
    EXPECT_EQ(a.promptTokensInWindow, b.promptTokensInWindow);
    EXPECT_EQ(a.promptLatency.count(), b.promptLatency.count());
    EXPECT_EQ(a.promptLatency.mean(), b.promptLatency.mean());
    EXPECT_EQ(a.decodeLatency.count(), b.decodeLatency.count());
    EXPECT_EQ(a.decodeLatency.mean(), b.decodeLatency.mean());
    ASSERT_EQ(a.flowEvents.size(), b.flowEvents.size());
    for (size_t i = 0; i < a.flowEvents.size(); ++i) {
        EXPECT_EQ(a.flowEvents[i].time, b.flowEvents[i].time);
        EXPECT_EQ(a.flowEvents[i].node, b.flowEvents[i].node);
        EXPECT_EQ(a.flowEvents[i].kind, b.flowEvents[i].kind);
        EXPECT_EQ(a.flowEvents[i].flow, b.flowEvents[i].flow);
    }
}

/**
 * Drift-triggered re-solve: a straggler running below its profiled
 * rate (thermal throttling modeled by nodeSlowdown) loses routing
 * weight. Pipeline (0,1) is slowed through node 0; after the drift
 * re-solve the coordinator flow toward node 0 shrinks and pipeline
 * (2,3) absorbs the displaced traffic.
 */
TEST_F(ChurnFixture, DriftReSolveShiftsRoutingAwayFromStraggler)
{
    auto requests = makeRequests(3000, 60.0, 23);

    auto run_once = [&](double drift_threshold) {
        sim::SimConfig config;
        config.warmupSeconds = 2.0;
        config.measureSeconds = 60.0;
        config.driftThreshold = drift_threshold;
        // Node 0 secretly runs 2.5x slower than profiled.
        config.nodeSlowdown = {2.5, 1.0, 1.0, 1.0};
        scheduler::HelixScheduler sched(*topo);
        sim::ClusterSimulator sim(clusterSpec, *profiler, placement,
                                  sched, config);
        auto metrics = sim.run(requests);
        return std::make_pair(metrics, coordFlow(sched, 0));
    };

    auto [baseline, baseline_flow0] = run_once(0.0);
    auto [drifted, drifted_flow0] = run_once(0.25);

    // Without the trigger nothing is logged and the planned weights
    // stay stale.
    EXPECT_TRUE(baseline.flowEvents.empty());
    EXPECT_DOUBLE_EQ(baseline_flow0, coordFlow(*topo, 0));

    // The trigger fired on the straggler — and only the straggler.
    ASSERT_GE(drifted.flowEvents.size(), 1u);
    for (const auto &event : drifted.flowEvents) {
        EXPECT_EQ(event.kind, sim::ChurnEvent::Kind::Drift);
        EXPECT_EQ(event.resolveKind, sim::ResolveKind::Drift);
        EXPECT_EQ(event.node, 0);
        EXPECT_LT(event.flow, topo->maxFlow());
    }

    // Routing shifted away: node 0's coordinator flow shrank and the
    // healthy replica processed more work than under stale weights.
    EXPECT_LT(drifted_flow0, 0.8 * baseline_flow0);
    EXPECT_GT(drifted.nodeStats[2].tokensProcessed,
              baseline.nodeStats[2].tokensProcessed);
}

// --- recentThroughput decay (Swarm over-weighting fix) ---------------

TEST_F(ChurnFixture, RecentThroughputDecaysForQuietNodes)
{
    scheduler::HelixScheduler sched(*topo);
    sim::SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 60.0;
    config.churnEvents = {{sim::ChurnEvent::Kind::Fail, 1, 10.0}};
    sim::ClusterSimulator sim(clusterSpec, *profiler, placement,
                              sched, config);
    auto metrics = sim.run(makeRequests(500, 10.0));

    // Node 1 processed work before failing, then went silent for
    // ~50 simulated seconds. A never-decaying EWMA would still report
    // its busy-period rate; the decayed estimate must be a tiny
    // fraction of the surviving replica's.
    ASSERT_GT(metrics.nodeStats[1].tokensProcessed, 0);
    double dead_rate = sim.recentThroughput(1);
    double live_rate = sim.recentThroughput(3);
    ASSERT_GT(live_rate, 0.0);
    EXPECT_LT(dead_rate, 0.05 * live_rate);
}

// --- Spec engine: end-to-end schedule + thread invariance ------------

TEST(ChurnSpec, ScheduleRunsIdenticallyAcrossThreadCounts)
{
    io::ParseError error;
    auto spec = io::experimentFromString(
        "experiment v1\n"
        "warmup 1\nmeasure 4\nplanner-budget 0.05\n"
        "cluster planner10\nmodel llama30b\n"
        "system a swarm helix\n"
        "system b swarm swarm\n"
        "scenario offline\n"
        "scenario churn online=0 fail=0@0.3 recover=0@0.6\n",
        error);
    ASSERT_TRUE(spec.has_value()) << error.str();
    ASSERT_TRUE(exp::validateSpec(*spec, &error)) << error.str();

    std::optional<std::vector<exp::JobResult>> reference;
    for (int threads : {1, 4, 16}) {
        auto results = exp::runSpec(*spec, &error, threads);
        ASSERT_TRUE(results.has_value()) << error.str();
        ASSERT_EQ(results->size(), 4u); // 2 systems x 2 scenarios
        if (!reference) {
            reference = std::move(results);
            // The churn rows actually applied the schedule, by
            // incremental repair.
            const auto &churn_row = reference->at(2);
            ASSERT_EQ(churn_row.metrics.flowEvents.size(), 2u);
            for (const auto &event : churn_row.metrics.flowEvents)
                EXPECT_EQ(event.resolveKind, sim::ResolveKind::Repair);
            EXPECT_NE(exp::resultsToCsv({churn_row}).find("/repair"),
                      std::string::npos);
            continue;
        }
        for (size_t i = 0; i < results->size(); ++i) {
            EXPECT_EQ(results->at(i).label, reference->at(i).label);
            expectMetricsIdentical(results->at(i).metrics,
                                   reference->at(i).metrics);
        }
    }
}

TEST(ChurnSpec, ShippedChurnExampleMatchesDocAndRuns)
{
    auto text = io::readFile(std::string(HELIX_EXAMPLES_DIR) +
                             "/churn.exp");
    ASSERT_TRUE(text.has_value());
    io::ParseError error;
    auto spec = io::experimentFromString(*text, error);
    ASSERT_TRUE(spec.has_value()) << error.str();
    EXPECT_TRUE(exp::validateSpec(*spec, &error)) << error.str();
    EXPECT_EQ(spec->name, "churn");
    ASSERT_EQ(spec->scenarios.size(), 2u);
    EXPECT_EQ(spec->scenarios[1].kind, "churn");
    ASSERT_EQ(spec->scenarios[1].events.size(), 2u);
    EXPECT_TRUE(spec->scenarios[1].events[0].fail);
    EXPECT_EQ(spec->scenarios[1].events[0].node, 4);
    EXPECT_FALSE(spec->scenarios[1].events[1].fail);

    // A fail event and its recovery both applied, and the recovery
    // restored the planned flow exactly.
    auto results = exp::runSpec(*spec, &error);
    ASSERT_TRUE(results.has_value()) << error.str();
    ASSERT_EQ(results->size(), 4u); // 2 systems x 2 scenarios
    const auto &churn_row = results->at(2);
    ASSERT_EQ(churn_row.metrics.flowEvents.size(), 2u);
    EXPECT_EQ(churn_row.metrics.flowEvents[0].kind,
              sim::ChurnEvent::Kind::Fail);
    EXPECT_EQ(churn_row.metrics.flowEvents[1].kind,
              sim::ChurnEvent::Kind::Recover);
    EXPECT_LT(churn_row.metrics.flowEvents[0].flow,
              churn_row.metrics.flowEvents[1].flow);
    EXPECT_DOUBLE_EQ(churn_row.metrics.flowEvents[1].flow,
                     churn_row.plannedThroughput);
}

} // namespace
} // namespace helix
