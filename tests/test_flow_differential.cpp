/**
 * @file
 * Randomized differential-testing harness for incremental max-flow
 * repair (PreflowPush::repair). Placement graphs built over generated
 * clusters (gen:<preset>:<n>, n in {16, 64, 256}) are driven through
 * random fail / recover / capacity-drift schedules; after every event
 * the repaired flow value must equal, bit for bit, a cold PreflowPush
 * solve's AND an independent Dinic solve's on a fresh copy of the same
 * network, and the repaired flow assignment itself must be conserved
 * exactly at every interior vertex and feasible on every arc. The
 * network's capacities are integer Units (flow/graph.h), so every
 * check is an exact comparison.
 *
 * Every checked event is one "instance"; the default schedule sizes
 * give >= 1000 instances. Set HELIX_FUZZ_ITERS to scale the total
 * instance budget up (soak runs) or down (quick smoke). On failure
 * each assertion carries a single replay line (preset, node count,
 * schedule seed, event index, event) that reproduces the instance.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/generator.h"
#include "cluster/profiler.h"
#include "flow/graph.h"
#include "flow/max_flow.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "util/random.h"

namespace helix {
namespace {

using flow::ArcId;
using flow::EdgeList;
using flow::FlowGraph;
using flow::NodeId;
using flow::Units;

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

/** One randomized mutation of a node's compute capacity. */
struct FuzzEvent
{
    enum class Op
    {
        Fail,    // capacity -> 0
        Recover, // capacity -> profiled
        Drift,   // capacity -> fraction * profiled
    };
    Op op = Op::Fail;
    int node = -1;
    double capacity = 0.0;
};

const char *
toString(FuzzEvent::Op op)
{
    switch (op) {
      case FuzzEvent::Op::Fail:    return "fail";
      case FuzzEvent::Op::Recover: return "recover";
      case FuzzEvent::Op::Drift:   return "drift";
    }
    return "?";
}

/** One generated cluster exercised by one schedule. */
struct FuzzConfig
{
    const char *preset;
    int numNodes;
    uint64_t scheduleSeed;
    int numEvents;
};

/**
 * Default schedule sizes: 1020 instances total. HELIX_FUZZ_ITERS
 * rescales every schedule proportionally.
 */
const FuzzConfig kConfigs[] = {
    {"homogeneous", 16, 11, 90},
    {"homogeneous", 16, 12, 90},
    {"two-tier", 16, 21, 90},
    {"two-tier", 16, 22, 90},
    {"long-tail-heterogeneous", 16, 31, 90},
    {"long-tail-heterogeneous", 16, 32, 90},
    {"two-tier", 64, 41, 120},
    {"geo-distributed", 64, 51, 120},
    {"long-tail-heterogeneous", 256, 61, 120},
    {"geo-distributed", 256, 71, 120},
};
constexpr int kDefaultInstances = 1020;

/** Total instance budget: HELIX_FUZZ_ITERS or the default 1020. */
int
instanceBudget()
{
    const char *env = std::getenv("HELIX_FUZZ_ITERS");
    if (!env || *env == '\0')
        return kDefaultInstances;
    int value = std::atoi(env);
    return value > 0 ? value : kDefaultInstances;
}

/**
 * Checks one repaired placement graph against both oracles and the
 * flow axioms. @p replay is appended to every assertion message.
 */
void
checkAgainstOracles(placement::PlacementGraph &live, double repaired,
                    const std::string &replay)
{
    const FlowGraph &net = live.graph();

    // Oracle 1: cold preflow-push on a fresh copy.
    FlowGraph cold_graph = cloneGraph(net);
    flow::PreflowPush cold(cold_graph);
    double cold_value = cold.solve(live.source(), live.sink());
    EXPECT_EQ(repaired, cold_value) << replay;

    // Oracle 2: independent Dinic solve.
    FlowGraph dinic_graph = cloneGraph(net);
    flow::Dinic dinic(dinic_graph);
    double dinic_value = dinic.solve(live.source(), live.sink());
    EXPECT_EQ(repaired, dinic_value) << replay;

    // Axiom: every arc's flow respects 0 <= flow <= capacity.
    for (ArcId a = 0; static_cast<size_t>(a) < net.numArcs(); ++a) {
        if (!net.isForward(a))
            continue;
        const Units f = net.flowUnits(a);
        ASSERT_GE(f, 0) << "arc " << a << ": " << replay;
        ASSERT_LE(f, net.originalUnits(a))
            << "arc " << a << ": " << replay;
    }

    // Axiom: conservation at every interior vertex.
    for (size_t v = 0; v < net.numNodes(); ++v) {
        auto vertex = static_cast<NodeId>(v);
        if (vertex == live.source() || vertex == live.sink())
            continue;
        ASSERT_EQ(imbalance(net, vertex), 0)
            << "vertex " << v << ": " << replay;
    }
}

/** Runs one config's schedule; returns the number of instances. */
int
runSchedule(const FuzzConfig &config, int num_events)
{
    cluster::gen::GeneratorConfig gen_config;
    gen_config.preset = config.preset;
    gen_config.numNodes = config.numNodes;
    gen_config.seed = 42;
    auto clus = cluster::gen::generate(gen_config);
    if (!clus.has_value()) {
        ADD_FAILURE() << "generator rejected preset "
                      << config.preset;
        return 0;
    }

    auto model = model::catalog::llama30b();
    cluster::Profiler profiler(model);
    placement::SwarmPlanner planner;
    auto placement = planner.plan(*clus, profiler);

    placement::PlacementGraph live(*clus, profiler, placement);

    // Profiled compute capacities (the recover targets), and which
    // nodes actually hold layers (the fuzzable population).
    std::vector<double> profiled(clus->numNodes(), -1.0);
    std::vector<int> fuzzable;
    for (int node = 0; node < clus->numNodes(); ++node) {
        ArcId comp = live.computeEdge(node);
        if (comp == flow::kInvalidArc)
            continue;
        profiled[node] = live.graph().originalCapacity(comp);
        fuzzable.push_back(node);
    }
    if (fuzzable.empty())
        return 0;

    // Instance 0 of every schedule: the initial cold solve itself
    // must match the oracles.
    double value = live.maxThroughput();
    std::ostringstream base;
    base << "replay: preset=" << config.preset
         << " n=" << config.numNodes << " cluster_seed=42"
         << " schedule_seed=" << config.scheduleSeed;
    checkAgainstOracles(live, value, base.str() + " event=initial");
    int instances = 1;

    Rng rng(config.scheduleSeed);
    std::vector<bool> alive(clus->numNodes(), true);
    for (int i = 1; i < num_events; ++i) {
        // Draw the next event against the current alive/dead state:
        // fail a live node, recover a dead one, or drift-shrink a
        // live node to a random fraction of its profiled capacity.
        FuzzEvent event;
        event.node = fuzzable[rng.nextBounded(fuzzable.size())];
        if (!alive[event.node]) {
            event.op = FuzzEvent::Op::Recover;
            event.capacity = profiled[event.node];
            alive[event.node] = true;
        } else if (rng.nextBounded(3) == 0) {
            event.op = FuzzEvent::Op::Fail;
            event.capacity = 0.0;
            alive[event.node] = false;
        } else {
            event.op = FuzzEvent::Op::Drift;
            event.capacity =
                rng.nextUniform(0.05, 0.95) * profiled[event.node];
        }

        live.setComputeCapacity(event.node, event.capacity);
        double repaired = live.repairFlow();

        std::ostringstream replay;
        replay << base.str() << " event=" << i << " op="
               << toString(event.op) << " node=" << event.node
               << " capacity=" << event.capacity;
        checkAgainstOracles(live, repaired, replay.str());
        ++instances;
        if (::testing::Test::HasFatalFailure())
            break;
    }
    return instances;
}

TEST(FlowDifferential, RepairMatchesColdAndDinicUnderRandomChurn)
{
    int budget = instanceBudget();
    int instances = 0;
    for (const FuzzConfig &config : kConfigs) {
        // Rescale this schedule's share of the instance budget.
        int events = std::max(
            1, static_cast<int>(static_cast<long long>(
                                    config.numEvents) *
                                budget / kDefaultInstances));
        instances += runSchedule(config, events);
        if (::testing::Test::HasFatalFailure())
            break;
    }
    if (budget == kDefaultInstances) {
        EXPECT_GE(instances, 1000);
    }
}

/**
 * Degenerate residual shapes the cluster-backed fuzz above cannot
 * produce: raw random multigraphs (parallel edges, cycles, dead-end
 * branches) under random single-edge capacity updates.
 */
TEST(FlowDifferential, RepairMatchesOnRawRandomGraphs)
{
    Rng rng(4242);
    for (int trial = 0; trial < 60; ++trial) {
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
        std::vector<ArcId> forward;
        FlowGraph g = list.build(&forward);
        if (forward.empty())
            continue;
        flow::PreflowPush solver(g);
        (void)solver.solve(0, 1);
        for (int step = 0; step < 10; ++step) {
            ArcId target =
                forward[rng.nextBounded(forward.size())];
            double cap = rng.nextBounded(4) == 0
                             ? 0.0
                             : rng.nextUniform(0.0, 20.0);
            g.setEdgeCapacity(target, cap);
            double repaired = solver.repair(0, 1);

            FlowGraph cold_graph = cloneGraph(g);
            flow::PreflowPush cold(cold_graph);
            double cold_value = cold.solve(0, 1);
            FlowGraph dinic_graph = cloneGraph(g);
            flow::Dinic dinic(dinic_graph);
            double dinic_value = dinic.solve(0, 1);
            ASSERT_EQ(repaired, cold_value)
                << "replay: trial=" << trial << " step=" << step
                << " arc=" << target << " capacity=" << cap;
            ASSERT_EQ(repaired, dinic_value)
                << "replay: trial=" << trial << " step=" << step
                << " arc=" << target << " capacity=" << cap;
            for (NodeId v = 2; v < n; ++v) {
                ASSERT_EQ(imbalance(g, v), 0)
                    << "node " << v << " trial " << trial << " step "
                    << step;
            }
        }
    }
}

} // namespace
} // namespace helix
