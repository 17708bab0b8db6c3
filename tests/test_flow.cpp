/**
 * @file
 * Tests for the flow substrate: graph bookkeeping, preflow-push
 * correctness (cross-checked against repair() augmenting from zero
 * flow and against hand-solved instances),
 * max-flow/min-cut duality, and flow conservation after the
 * two-phase conversion, plus pins of every solved flow on two
 * placement graphs, cold and after a repaired churn replay, of
 * repair() augmenting from zero flow, and of the planner's compute
 * capacities in flow units.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <set>
#include <tuple>

#include "cluster/cluster.h"
#include "cluster/generator.h"
#include "cluster/profiler.h"
#include "exp/experiment.h"
#include "flow/graph.h"
#include "flow/max_flow.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "scheduler/scheduler.h"
#include "scheduler/topology_manager.h"
#include "util/compare.h"
#include "util/random.h"

namespace helix {
namespace flow {
namespace {


/** Build a fresh copy of @p graph with original capacities: the same
 *  arc layout, every residual reset. */
FlowGraph
cloneGraph(const FlowGraph &graph)
{
    FlowGraph copy = graph;
    copy.resetFlow();
    return copy;
}

/** Net flow imbalance at @p node (inflow - outflow on forward edges),
 *  in Units. */
Units
imbalance(const FlowGraph &graph, NodeId node)
{
    Units net = 0;
    for (ArcId a = 0; static_cast<size_t>(a) < graph.numArcs(); ++a) {
        if (!graph.isForward(a))
            continue;
        const Units f = graph.flowUnits(a);
        if (graph.head(a) == node)
            net += f;
        if (graph.tail(a) == node)
            net -= f;
    }
    return net;
}

/**
 * A maximum flow found by augmenting shortest residual paths from
 * zero flow: repair() on a graph with no flow and no edited arcs runs
 * only its phase 2, BFS levels and a blocking DFS in arc order.
 */
double
augmentFromZero(FlowGraph &graph, NodeId source, NodeId sink)
{
    HELIX_ASSERT(graph.dirtyEdges().empty());
    PreflowPush solver(graph);
    return solver.repair(source, sink);
}

TEST(FlowGraph, AddNodesAndEdges)
{
    EdgeList list;
    NodeId a = list.addNode();
    NodeId b = list.addNode();
    EXPECT_EQ(list.addEdge(a, b, 5.0), 0u);
    std::vector<ArcId> forward;
    FlowGraph g = list.build(&forward);
    EXPECT_EQ(g.numNodes(), 2u);
    EXPECT_EQ(g.numEdges(), 1u);
    ASSERT_EQ(forward.size(), 1u);
    ArcId e = forward[0];
    EXPECT_TRUE(g.isForward(e));
    EXPECT_FALSE(g.isForward(g.twin(e)));
    EXPECT_EQ(g.twin(g.twin(e)), e);
    EXPECT_EQ(g.arc(e).residual, toUnits(5.0));
    EXPECT_EQ(g.arc(g.twin(e)).residual, 0);
    EXPECT_EQ(g.tail(g.twin(e)), b);
    EXPECT_EQ(g.head(g.twin(e)), a);
    EXPECT_TRUE(g.filled());

    // Sized from degrees, a network is filled once every arc position
    // has been taken by an edge.
    FlowGraph sized(std::vector<uint32_t>{1, 1});
    EXPECT_FALSE(sized.filled());
    EXPECT_EQ(sized.addEdge(a, b, 2.0), sized.arcBegin(a));
    EXPECT_TRUE(sized.filled());
    EXPECT_EQ(sized.originalCapacity(sized.arcBegin(a)), 2.0);
}

/** Whether @p value is a whole number of Units. */
bool
isWholeUnits(double value)
{
    const double units = value * kUnitsPerToken;
    return sameValue(std::trunc(units), units);
}

TEST(FlowGraph, CapacitiesAreRoundedToUnits)
{
    // 0.1 and 0.3 token/s are not multiples of 2^-20: the network
    // stores the nearest unit, and every value it hands back is a
    // whole number of units.
    EdgeList list;
    NodeId s = list.addNode();
    NodeId t = list.addNode();
    list.addEdge(s, t, 0.1);
    std::vector<ArcId> forward;
    FlowGraph g = list.build(&forward);
    const ArcId e = forward[0];
    EXPECT_EQ(g.originalUnits(e), toUnits(0.1));
    EXPECT_EQ(g.arc(e).residual, toUnits(0.1));
    EXPECT_EQ(g.originalCapacity(e), fromUnits(toUnits(0.1)));
    EXPECT_NE(g.originalCapacity(e), 0.1);
    EXPECT_TRUE(isWholeUnits(g.originalCapacity(e)));

    PreflowPush solver(g);
    EXPECT_EQ(solver.solve(s, t), g.originalCapacity(e));
    EXPECT_EQ(g.flowOn(e), g.originalCapacity(e));
    EXPECT_TRUE(isWholeUnits(g.flowOn(e)));

    g.setEdgeCapacity(e, 0.3);
    EXPECT_EQ(g.originalUnits(e), toUnits(0.3));
    EXPECT_EQ(g.arc(e).residual, toUnits(0.3) - toUnits(0.1));
    EXPECT_EQ(solver.repair(s, t), fromUnits(toUnits(0.3)));
    EXPECT_TRUE(isWholeUnits(g.originalCapacity(e)));
    EXPECT_TRUE(isWholeUnits(g.flowOn(e)));
}

TEST(FlowGraphDeathTest, RejectsCapacitiesOutsideTheUnitRange)
{
    FlowGraph g(std::vector<uint32_t>{1, 1});
    EXPECT_DEATH(g.addEdge(0, 1, -1.0), "assertion failed");
    EXPECT_DEATH(g.addEdge(0, 1, std::nan("")), "assertion failed");
    EXPECT_DEATH(g.addEdge(0, 1, 0x1p42), "assertion failed");
    const ArcId e = g.addEdge(0, 1, 0x1p42 - 1.0);
    EXPECT_DEATH(g.setEdgeCapacity(e, -1.0), "assertion failed");
    EXPECT_DEATH(g.setEdgeCapacity(e, std::nan("")), "assertion failed");
    EXPECT_DEATH(g.setEdgeCapacity(e, 0x1p43), "assertion failed");
}

TEST(FlowGraph, ArcBlocksFollowInsertionOrder)
{
    // Each vertex's block holds its out-arcs and the twins of its
    // in-arcs in the order their edges were added; a self-loop puts
    // both arcs in one block, forward first.
    EdgeList list;
    NodeId a = list.addNode();
    NodeId b = list.addNode();
    NodeId c = list.addNode();
    list.addEdge(b, a, 1.0); // 0
    list.addEdge(a, c, 2.0); // 1
    list.addEdge(a, a, 3.0); // 2
    list.addEdge(c, a, 4.0); // 3
    list.addEdge(a, b, 5.0); // 4
    std::vector<ArcId> forward;
    FlowGraph g = list.build(&forward);
    ASSERT_EQ(g.numArcs(), 10u);
    EXPECT_EQ(g.arcBegin(a), 0);
    EXPECT_EQ(g.arcEnd(a), 6);
    EXPECT_EQ(g.arcEnd(b), 8);
    EXPECT_EQ(g.arcEnd(c), 10);
    // a: twin of 0, 1, 2 and its twin, twin of 3, 4.
    const ArcId expected[] = {g.twin(forward[0]), forward[1], forward[2],
                              g.twin(forward[2]), g.twin(forward[3]),
                              forward[4]};
    for (ArcId k = 0; k < 6; ++k)
        EXPECT_EQ(g.arcBegin(a) + k, expected[k]) << "arc " << k;
    EXPECT_EQ(forward[0], g.arcBegin(b));
    EXPECT_EQ(g.twin(forward[4]), g.arcBegin(b) + 1);
    for (ArcId e : forward) {
        EXPECT_TRUE(g.isForward(e));
        EXPECT_EQ(g.twin(g.twin(e)), e);
        EXPECT_GE(e, g.arcBegin(g.tail(e)));
        EXPECT_LT(e, g.arcEnd(g.tail(e)));
    }
    EXPECT_EQ(g.originalCapacity(forward[3]), 4.0);
    EXPECT_EQ(g.originalCapacity(g.twin(forward[3])), 0.0);
}

TEST(FlowGraph, ResetFlowRestoresCapacity)
{
    EdgeList list;
    NodeId s = list.addNode();
    NodeId t = list.addNode();
    list.addEdge(s, t, 3.0);
    std::vector<ArcId> forward;
    FlowGraph g = list.build(&forward);
    PreflowPush solver(g);
    EXPECT_EQ(solver.solve(s, t), 3.0);
    EXPECT_EQ(g.flowOn(forward[0]), 3.0);
    g.resetFlow();
    EXPECT_EQ(g.flowOn(forward[0]), 0.0);
}

TEST(FlowGraph, OutCapacitySumsForwardEdges)
{
    EdgeList list;
    NodeId a = list.addNode();
    NodeId b = list.addNode();
    NodeId c = list.addNode();
    list.addEdge(a, b, 2.0);
    list.addEdge(a, c, 3.5);
    list.addEdge(b, a, 7.0);
    FlowGraph g = list.build();
    EXPECT_EQ(g.outCapacity(a), 5.5);
    EXPECT_EQ(g.outCapacity(b), 7.0);
}

TEST(PreflowPush, SingleEdge)
{
    EdgeList list;
    NodeId s = list.addNode();
    NodeId t = list.addNode();
    list.addEdge(s, t, 4.25);
    FlowGraph g = list.build();
    PreflowPush solver(g);
    EXPECT_EQ(solver.solve(s, t), 4.25);
}

TEST(PreflowPush, SeriesBottleneck)
{
    EdgeList list;
    NodeId s = list.addNode();
    NodeId m = list.addNode();
    NodeId t = list.addNode();
    list.addEdge(s, m, 10.0);
    list.addEdge(m, t, 3.0);
    FlowGraph g = list.build();
    PreflowPush solver(g);
    EXPECT_EQ(solver.solve(s, t), 3.0);
}

TEST(PreflowPush, ParallelPathsSum)
{
    EdgeList list;
    NodeId s = list.addNode();
    NodeId a = list.addNode();
    NodeId b = list.addNode();
    NodeId t = list.addNode();
    list.addEdge(s, a, 2.0);
    list.addEdge(a, t, 2.0);
    list.addEdge(s, b, 5.0);
    list.addEdge(b, t, 4.0);
    FlowGraph g = list.build();
    PreflowPush solver(g);
    EXPECT_EQ(solver.solve(s, t), 6.0);
}

TEST(PreflowPush, ClassicTextbookInstance)
{
    // CLRS figure: max flow 23.
    EdgeList list;
    NodeId s = list.addNode();
    NodeId v1 = list.addNode();
    NodeId v2 = list.addNode();
    NodeId v3 = list.addNode();
    NodeId v4 = list.addNode();
    NodeId t = list.addNode();
    list.addEdge(s, v1, 16);
    list.addEdge(s, v2, 13);
    list.addEdge(v1, v3, 12);
    list.addEdge(v2, v1, 4);
    list.addEdge(v2, v4, 14);
    list.addEdge(v3, v2, 9);
    list.addEdge(v3, t, 20);
    list.addEdge(v4, v3, 7);
    list.addEdge(v4, t, 4);
    FlowGraph g = list.build();
    PreflowPush solver(g);
    EXPECT_EQ(solver.solve(s, t), 23.0);
}

TEST(PreflowPush, DisconnectedSinkIsZero)
{
    EdgeList list;
    NodeId s = list.addNode();
    NodeId a = list.addNode();
    NodeId t = list.addNode();
    list.addEdge(s, a, 5.0);
    FlowGraph g = list.build();
    PreflowPush solver(g);
    EXPECT_EQ(solver.solve(s, t), 0.0);
}

TEST(PreflowPush, ZeroCapacityEdgesCarryNothing)
{
    EdgeList list;
    NodeId s = list.addNode();
    NodeId t = list.addNode();
    list.addEdge(s, t, 0.0);
    FlowGraph g = list.build();
    PreflowPush solver(g);
    EXPECT_EQ(solver.solve(s, t), 0.0);
}

TEST(PreflowPush, SelfLoopEdgesCarryNoFlow)
{
    EdgeList list;
    NodeId s = list.addNode();
    NodeId m = list.addNode();
    NodeId t = list.addNode();
    size_t source_loop = list.addEdge(s, s, 9.0);
    list.addEdge(s, m, 4.0);
    size_t mid_loop = list.addEdge(m, m, 7.0);
    list.addEdge(m, t, 3.0);
    std::vector<ArcId> forward;
    FlowGraph g = list.build(&forward);
    PreflowPush solver(g);
    EXPECT_EQ(solver.solve(s, t), 3.0);
    EXPECT_EQ(g.flowOn(forward[source_loop]), 0.0);
    EXPECT_EQ(g.flowOn(forward[mid_loop]), 0.0);
}

TEST(PreflowPush, ZeroCapacityBottleneckStrandsExcess)
{
    // The only exit from m has zero capacity, so the preflow pushed
    // into m must be returned to the source by phase 2 and the flow
    // value and recorded flows must all be zero.
    EdgeList list;
    NodeId s = list.addNode();
    NodeId m = list.addNode();
    NodeId t = list.addNode();
    size_t in = list.addEdge(s, m, 10.0);
    size_t out = list.addEdge(m, t, 0.0);
    std::vector<ArcId> forward;
    FlowGraph g = list.build(&forward);
    PreflowPush solver(g);
    EXPECT_EQ(solver.solve(s, t), 0.0);
    EXPECT_EQ(g.flowOn(forward[in]), 0.0);
    EXPECT_EQ(g.flowOn(forward[out]), 0.0);
}

TEST(FlowRepair, AugmentFromZeroMatchesKnownValue)
{
    EdgeList list;
    NodeId s = list.addNode();
    NodeId a = list.addNode();
    NodeId b = list.addNode();
    NodeId t = list.addNode();
    list.addEdge(s, a, 3.0);
    list.addEdge(s, b, 2.0);
    list.addEdge(a, b, 1.0);
    list.addEdge(a, t, 2.0);
    list.addEdge(b, t, 3.0);
    FlowGraph g = list.build();
    EXPECT_EQ(augmentFromZero(g, s, t), 5.0);
}

/** Parameterized random cross-check between a cold PreflowPush solve
 *  and repair() augmenting from zero flow. */
class RandomGraphCrossCheck : public ::testing::TestWithParam<uint64_t>
{
};

/** One RandomGraphCrossCheck instance: 2-11 nodes and up to 3n
 *  random edges (self-loops dropped) with capacities in [0, 20). */
EdgeList
randomCrossCheckEdges(Rng &rng)
{
    int n = 2 + static_cast<int>(rng.nextBounded(10));
    EdgeList list;
    for (int i = 0; i < n; ++i)
        list.addNode();
    int m = 1 + static_cast<int>(rng.nextBounded(3 * n));
    for (int e = 0; e < m; ++e) {
        auto u = static_cast<NodeId>(rng.nextBounded(n));
        auto v = static_cast<NodeId>(rng.nextBounded(n));
        if (u == v)
            continue;
        list.addEdge(u, v, rng.nextUniform(0.0, 20.0));
    }
    return list;
}

/** The seeds RandomGraphCrossCheck runs, 200 instances each. */
constexpr uint64_t kCrossCheckSeeds[] = {1, 2, 3, 5, 8, 13, 21, 34};
constexpr int kCrossCheckTrials = 200;

TEST_P(RandomGraphCrossCheck, PreflowMatchesAugmentFromZero)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < kCrossCheckTrials; ++trial) {
        const EdgeList list = randomCrossCheckEdges(rng);
        FlowGraph g1 = list.build();
        FlowGraph g2 = cloneGraph(g1);
        PreflowPush pp(g1);
        double f1 = pp.solve(0, 1);
        double f2 = augmentFromZero(g2, 0, 1);
        EXPECT_EQ(f1, f2) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraphCrossCheck,
                         ::testing::ValuesIn(kCrossCheckSeeds));

/** Property: after solving, flow is conserved at interior nodes. */
class ConservationProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ConservationProperty, InteriorNodesBalance)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 50; ++trial) {
        int n = 3 + static_cast<int>(rng.nextBounded(8));
        EdgeList list;
        for (int i = 0; i < n; ++i)
            list.addNode();
        for (int e = 0; e < 4 * n; ++e) {
            auto u = static_cast<NodeId>(rng.nextBounded(n));
            auto v = static_cast<NodeId>(rng.nextBounded(n));
            if (u == v)
                continue;
            // Mix small and very large capacities: conservation is
            // exact at every scale.
            double cap = (rng.nextBounded(4) == 0)
                             ? rng.nextUniform(1e6, 1e8)
                             : rng.nextUniform(0.0, 100.0);
            list.addEdge(u, v, cap);
        }
        FlowGraph g = list.build();
        PreflowPush solver(g);
        double value = solver.solve(0, 1);
        for (NodeId v = 2; v < n; ++v) {
            EXPECT_EQ(imbalance(g, v), 0)
                << "node " << v << " trial " << trial;
        }
        // Source emits exactly the flow value; sink absorbs it.
        EXPECT_EQ(fromUnits(-imbalance(g, 0)), value);
        EXPECT_EQ(fromUnits(imbalance(g, 1)), value);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationProperty,
                         ::testing::Values(101, 202, 303, 404));

/** Property: max flow equals the capacity of the found min cut. */
class MinCutProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(MinCutProperty, FlowEqualsCutCapacity)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 100; ++trial) {
        int n = 2 + static_cast<int>(rng.nextBounded(9));
        EdgeList list;
        for (int i = 0; i < n; ++i)
            list.addNode();
        for (int e = 0; e < 3 * n; ++e) {
            auto u = static_cast<NodeId>(rng.nextBounded(n));
            auto v = static_cast<NodeId>(rng.nextBounded(n));
            if (u == v)
                continue;
            list.addEdge(u, v, rng.nextUniform(0.0, 10.0));
        }
        FlowGraph g = list.build();
        PreflowPush solver(g);
        double value = solver.solve(0, 1);
        std::vector<bool> source_side = minCutSourceSide(g, 0);
        EXPECT_TRUE(source_side[0]);
        EXPECT_FALSE(source_side[1]);
        Units cut = 0;
        for (ArcId a = 0; static_cast<size_t>(a) < g.numArcs(); ++a) {
            if (g.isForward(a) && source_side[g.tail(a)] &&
                !source_side[g.head(a)])
                cut += g.originalUnits(a);
        }
        EXPECT_EQ(value, fromUnits(cut)) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinCutProperty,
                         ::testing::Values(7, 77, 777));

/**
 * A diamond with a cross edge: s -> {a, b} -> t plus a -> b. Max flow
 * 6 routes 2 via a->t, 1 via a->b, 3 direct through b. Shrinking or
 * severing either branch forces repair to cancel and reroute.
 */
struct Diamond
{
    FlowGraph g;
    /** Forward arc of each edge, in the order they were added. */
    std::vector<ArcId> edge;
};

Diamond
diamondGraph()
{
    EdgeList list;
    list.addNode(); // 0
    list.addNode(); // 1
    list.addNode(); // 2
    list.addNode(); // 3
    list.addEdge(0, 2, 3.0); // edge 0: s->a
    list.addEdge(0, 3, 3.0); // edge 1: s->b
    list.addEdge(2, 3, 1.0); // edge 2: a->b
    list.addEdge(2, 1, 2.0); // edge 3: a->t
    list.addEdge(3, 1, 4.0); // edge 4: b->t
    Diamond d;
    d.g = list.build(&d.edge);
    return d;
}

TEST(FlowRepair, FailThenRecoverRestoresOriginalValue)
{
    Diamond d = diamondGraph();
    FlowGraph &g = d.g;
    PreflowPush solver(g);
    double original = solver.solve(0, 1);
    EXPECT_EQ(original, 6.0);

    // Fail branch a: both of its arcs drop to zero capacity.
    g.setEdgeCapacity(d.edge[0], 0.0);
    double degraded = solver.repair(0, 1);
    EXPECT_EQ(degraded, 3.0);
    EXPECT_EQ(g.flowOn(d.edge[0]), 0.0);

    // Recover: restoring the capacity restores the original value.
    g.setEdgeCapacity(d.edge[0], 3.0);
    EXPECT_EQ(solver.repair(0, 1), original);
}

TEST(FlowRepair, ZeroFlowEdgeChangeIsANoOp)
{
    Diamond d = diamondGraph();
    FlowGraph &g = d.g;
    PreflowPush solver(g);
    double value = solver.solve(0, 1);

    // a->b carries at most 1.0; capacity above the bottleneck can
    // change freely without touching the committed assignment.
    std::vector<double> flows;
    for (ArcId e : d.edge)
        flows.push_back(g.flowOn(e));
    double slack_flow = g.flowOn(d.edge[2]);
    g.setEdgeCapacity(d.edge[2], std::max(2.0, slack_flow + 1.0));
    EXPECT_EQ(solver.repair(0, 1), value);

    // Shrinking an edge down to exactly its current flow is also a
    // no-op: nothing is over-committed, nothing new is augmentable.
    g.setEdgeCapacity(d.edge[2], slack_flow);
    EXPECT_EQ(solver.repair(0, 1), value);
    for (size_t e = 0; e < d.edge.size(); ++e) {
        EXPECT_EQ(g.flowOn(d.edge[e]), flows[e])
            << "edge " << e;
    }
}

TEST(FlowRepair, RepeatedRepairIsIdempotent)
{
    Diamond d = diamondGraph();
    FlowGraph &g = d.g;
    PreflowPush solver(g);
    (void)solver.solve(0, 1);
    g.setEdgeCapacity(d.edge[4], 1.5); // shrink b->t below its flow
    double first = solver.repair(0, 1);

    std::vector<double> flows;
    for (ArcId e : d.edge)
        flows.push_back(g.flowOn(e));

    // No capacity changed since: repair must keep value AND flows.
    double second = solver.repair(0, 1);
    EXPECT_EQ(second, first);
    for (size_t e = 0; e < d.edge.size(); ++e) {
        EXPECT_EQ(g.flowOn(d.edge[e]), flows[e]) << "edge " << e;
    }
}

TEST(FlowRepair, RepairWithoutPriorSolveIsAFullSolve)
{
    Diamond d = diamondGraph();
    PreflowPush solver(d.g);
    EXPECT_EQ(solver.repair(0, 1), 6.0);
}

TEST(FlowRepair, EdgelessGraphRepairsToZero)
{
    EdgeList list;
    NodeId s = list.addNode();
    NodeId t = list.addNode();
    FlowGraph g = list.build();
    PreflowPush solver(g);
    EXPECT_EQ(solver.solve(s, t), 0.0);
    EXPECT_EQ(solver.repair(s, t), 0.0);
}

TEST(FlowRepair, SingleEdgeShrinkAndRestore)
{
    EdgeList list;
    NodeId s = list.addNode();
    NodeId t = list.addNode();
    list.addEdge(s, t, 5.0);
    std::vector<ArcId> forward;
    FlowGraph g = list.build(&forward);
    const ArcId e = forward[0];
    PreflowPush solver(g);
    EXPECT_EQ(solver.solve(s, t), 5.0);
    g.setEdgeCapacity(e, 2.0);
    EXPECT_EQ(solver.repair(s, t), 2.0);
    g.setEdgeCapacity(e, 0.0);
    EXPECT_EQ(solver.repair(s, t), 0.0);
    g.setEdgeCapacity(e, 5.0);
    EXPECT_EQ(solver.repair(s, t), 5.0);
}

TEST(MaxFlow, HandlesHugeCapacityMixedWithTiny)
{
    // Coordinator-style links (~3e8) mixed with compute edges (~1e3):
    // the value is exact at both scales.
    EdgeList list;
    NodeId s = list.addNode();
    NodeId t = list.addNode();
    NodeId a = list.addNode();
    NodeId b = list.addNode();
    list.addEdge(s, a, 3.125e8);
    list.addEdge(a, b, 4005.0);
    list.addEdge(b, t, 3.125e8);
    FlowGraph g = list.build();
    PreflowPush solver(g);
    EXPECT_EQ(solver.solve(s, t), 4005.0);
}

/** FNV-1a over the bit patterns of a sequence of doubles and
 *  integers. */
class FlowHash
{
  public:
    void
    add(double value)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        addBits(bits);
    }
    void
    addBits(uint64_t bits)
    {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (bits >> (8 * byte)) & 0xffu;
            hash *= 0x100000001b3ULL;
        }
    }
    [[nodiscard]] uint64_t value() const { return hash; }

  private:
    uint64_t hash = 0xcbf29ce484222325ULL;
};

/** Hash of nodeFlow-style per-node values, then of a Topology's
 *  per-slot flows visited row by row (slot order). */
struct FlowPins
{
    uint64_t nodes = 0;
    uint64_t slots = 0;
};

template <typename NodeFlow>
FlowPins
pinFlows(int num_nodes, NodeFlow node_flow, const scheduler::Topology &topo)
{
    FlowHash nodes;
    for (int i = 0; i < num_nodes; ++i)
        nodes.add(node_flow(i));
    FlowHash slots;
    for (int from = cluster::kCoordinator; from < num_nodes; ++from) {
        const placement::ConnectionTable::Row row = topo.outEdges(from);
        for (size_t k = 0; k < row.size(); ++k)
            slots.add(topo.flow(row.firstSlot + static_cast<uint32_t>(k)));
    }
    return {nodes.value(), slots.value()};
}

/**
 * Pins every flow the solver hands out, bit for bit, through APIs that
 * do not depend on the flow network's layout: each node's compute
 * flow and each connection's flow, after a cold solve and after a
 * fixed 20-event fail/recover/drift replay repaired in place. A change
 * to the order in which the solver visits arcs shows here even when
 * the max-flow value does not move.
 */
TEST(FlowPin, SolvedFlowsArePinnedBitForBit)
{
    struct Setup
    {
        const char *name;
        cluster::ClusterSpec cluster;
        model::TransformerSpec model;
        bool petals;
        FlowPins cold;
        FlowPins replayed;
    };
    cluster::gen::GeneratorConfig geo;
    geo.preset = "geo-distributed";
    geo.numNodes = 300;
    const Setup setups[] = {
        {"gen:geo-distributed:300/llama30b swarm",
         *cluster::gen::generate(geo), model::catalog::llama30b(), false,
         {0xf4c5205ca05720c1ULL, 0xd5f542274dfed43aULL},
         {0x37c5bf316e56f223ULL, 0xaad54ea186948b9eULL}},
        {"hetero42/llama70b petals",
         cluster::setups::highHeterogeneity42(),
         model::catalog::llama70b(), true,
         {0xc31bf1f3d929913cULL, 0xb2e34ebf94468b48ULL},
         {0xa0b8841169dd8d81ULL, 0xb914e08b6afeda58ULL}},
    };
    for (const Setup &setup : setups) {
        const cluster::ClusterSpec &clus = setup.cluster;
        cluster::Profiler profiler(setup.model);
        const placement::ModelPlacement placement =
            setup.petals ? placement::PetalsPlanner().plan(clus, profiler)
                         : placement::SwarmPlanner().plan(clus, profiler);
        const int n = clus.numNodes();

        placement::PlacementGraph graph(clus, profiler, placement);
        (void)graph.maxThroughput();
        const scheduler::Topology topo(clus, profiler, placement, graph);
        const FlowPins cold = pinFlows(
            n, [&](int i) { return graph.nodeFlow(i); }, topo);

        scheduler::TopologyManager manager(clus, profiler, placement, {},
                                           scheduler::ResolveMode::Repair);
        std::vector<int> holders;
        for (int i = 0; i < n; ++i) {
            if (placement[i].count > 0)
                holders.push_back(i);
        }
        ASSERT_FALSE(holders.empty()) << setup.name;
        std::vector<bool> alive(n, true);
        Rng rng(2024);
        for (int event = 0; event < 20; ++event) {
            const int node = holders[rng.nextBounded(holders.size())];
            if (!alive[node]) {
                (void)manager.setNodeAlive(node, true);
                alive[node] = true;
            } else if (rng.nextBounded(3) == 0) {
                (void)manager.setNodeAlive(node, false);
                alive[node] = false;
            } else {
                const double profiled = profiler.decodeThroughput(
                    clus.node(node), placement[node].count);
                (void)manager.setNodeCapacity(
                    node, rng.nextUniform(0.05, 0.95) * profiled);
            }
        }
        const FlowPins replayed = pinFlows(
            n, [&](int i) { return manager.plannedNodeFlow(i); },
            manager.current());

        EXPECT_EQ(cold.nodes, setup.cold.nodes)
            << setup.name << " cold nodeFlow: got 0x" << std::hex
            << cold.nodes;
        EXPECT_EQ(cold.slots, setup.cold.slots)
            << setup.name << " cold Topology::flow: got 0x" << std::hex
            << cold.slots;
        EXPECT_EQ(replayed.nodes, setup.replayed.nodes)
            << setup.name << " replayed nodeFlow: got 0x" << std::hex
            << replayed.nodes;
        EXPECT_EQ(replayed.slots, setup.replayed.slots)
            << setup.name << " replayed Topology::flow: got 0x"
            << std::hex << replayed.slots;
    }
}

/** Adds @p value's bits, then every forward arc's flowUnits in arc
 *  order. */
void
addFlows(FlowHash &hash, double value, const FlowGraph &graph)
{
    hash.add(value);
    for (ArcId a = 0; static_cast<size_t>(a) < graph.numArcs(); ++a) {
        if (graph.isForward(a))
            hash.addBits(static_cast<uint64_t>(graph.flowUnits(a)));
    }
}

/**
 * Pins the augmenting-path solver's flow value and every per-arc flow,
 * bit for bit, on the RandomGraphCrossCheck instances and on the
 * Petals placement graph of hetero42/llama70b. The hashes were
 * recorded with a standalone Dinic solver, before its augmenting-path
 * routine was left to repair() alone.
 */
TEST(FlowPin, AugmentFromZeroIsPinnedBitForBit)
{
    FlowHash random;
    for (uint64_t seed : kCrossCheckSeeds) {
        Rng rng(seed);
        for (int trial = 0; trial < kCrossCheckTrials; ++trial) {
            FlowGraph g = randomCrossCheckEdges(rng).build();
            const double value = augmentFromZero(g, 0, 1);
            addFlows(random, value, g);
        }
    }
    EXPECT_EQ(random.value(), 0xa5ee6814cc79521bULL)
        << "random instances: got 0x" << std::hex << random.value();

    const cluster::ClusterSpec clus = cluster::setups::highHeterogeneity42();
    const cluster::Profiler profiler(model::catalog::llama70b());
    const placement::ModelPlacement placement =
        placement::PetalsPlanner().plan(clus, profiler);
    const placement::PlacementGraph graph(clus, profiler, placement);
    FlowGraph net = cloneGraph(graph.graph());
    FlowHash hetero;
    addFlows(hetero, augmentFromZero(net, graph.source(), graph.sink()),
             net);
    EXPECT_EQ(hetero.value(), 0x3cc4292969b571e3ULL)
        << "hetero42/llama70b petals: got 0x" << std::hex
        << hetero.value();
}

/**
 * Pins the planner's compute capacities in flow units: toUnits of
 * decodeThroughput for each cluster's distinct node configurations
 * (GPU, memory, bandwidth and GPU count) on four paper and four
 * generated clusters, with all five catalog models and every layer
 * count a node can hold.
 */
TEST(FlowPin, DecodeCapacitiesArePinnedInUnits)
{
    const char *clusters[] = {
        "single24",
        "geo24",
        "hetero42",
        "planner10",
        "gen:geo-distributed:1000",
        "gen:geo-distributed:300",
        "gen:long-tail-heterogeneous:200",
        "gen:two-tier:64",
    };
    std::vector<cluster::NodeSpec> configs;
    for (const char *name : clusters) {
        const std::optional<cluster::ClusterSpec> clus =
            exp::clusterByName(name);
        ASSERT_TRUE(clus.has_value()) << name;
        std::set<std::tuple<double, double, double, int>> seen;
        for (int i = 0; i < clus->numNodes(); ++i) {
            const cluster::NodeSpec &node = clus->node(i);
            if (seen.emplace(node.gpu.tflopsFp16, node.gpu.memoryGiB,
                             node.gpu.memBandwidthGBs, node.numGpus)
                    .second)
                configs.push_back(node);
        }
    }
    const model::TransformerSpec models[] = {
        model::catalog::llama30b(), model::catalog::llama70b(),
        model::catalog::gpt3_175b(), model::catalog::grok1_314b(),
        model::catalog::llama3_405b()};
    FlowHash hash;
    int values = 0;
    for (const model::TransformerSpec &spec : models) {
        const cluster::Profiler profiler(spec);
        for (const cluster::NodeSpec &node : configs) {
            const int layers = profiler.hardMaxLayers(node);
            for (int l = 1; l <= layers; ++l) {
                hash.addBits(static_cast<uint64_t>(
                    toUnits(profiler.decodeThroughput(node, l))));
                ++values;
            }
        }
    }
    EXPECT_EQ(values, 1861);
    EXPECT_EQ(hash.value(), 0x04a0710e0c99a8d5ULL)
        << "decode capacities: got 0x" << std::hex << hash.value();
}

} // namespace
} // namespace flow
} // namespace helix
