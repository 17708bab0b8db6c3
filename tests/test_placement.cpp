/**
 * @file
 * Tests for placement types and the cluster→flow-graph construction
 * (Sec. 4.3), including the paper's Fig. 2 worked example, the
 * partial-inference connection rule and pruning filters.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/profiler.h"
#include "flow/max_flow.h"
#include "model/transformer.h"
#include "placement/placement.h"
#include "placement/placement_graph.h"
#include "scheduler/scheduler.h"
#include "sim/links.h"
#include "util/random.h"

namespace helix {
namespace placement {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Profiler;

ClusterSpec
tinyCluster(int n)
{
    ClusterSpec c;
    for (int i = 0; i < n; ++i) {
        NodeSpec node;
        node.name = "t4-" + std::to_string(i);
        node.gpu = cluster::gpus::t4();
        c.addNode(std::move(node));
    }
    c.setUniformLinks(10e9, 1e-3);
    return c;
}

TEST(NodePlacementType, EndArithmetic)
{
    NodePlacement p{5, 3};
    EXPECT_EQ(p.end(), 8);
    EXPECT_EQ(p, (NodePlacement{5, 3}));
}

TEST(ConnectionValidity, PartialInferenceRule)
{
    // Valid iff s_to <= e_from < e_to.
    EXPECT_TRUE(connectionValid({0, 4}, {4, 4}));  // e=s exact
    EXPECT_TRUE(connectionValid({0, 4}, {2, 4}));  // overlap
    EXPECT_FALSE(connectionValid({0, 4}, {5, 3})); // gap
    EXPECT_FALSE(connectionValid({0, 8}, {2, 4})); // e >= e_to
    EXPECT_FALSE(connectionValid({0, 0}, {0, 4})); // unused from
    EXPECT_FALSE(connectionValid({0, 4}, {4, 0})); // unused to
}

TEST(PlacementValidity, FullCoverageRequired)
{
    ClusterSpec c = tinyCluster(3);
    Profiler prof(model::catalog::llama30b());
    ModelPlacement p;
    p.nodes = {{0, 7}, {7, 7}, {14, 7}};
    // 21 < 60 layers: invalid.
    EXPECT_FALSE(placementValid(p, c, prof));
}

TEST(PlacementValidity, VramLimitEnforced)
{
    ClusterSpec c = tinyCluster(1);
    Profiler prof(model::catalog::llama30b());
    int hard = prof.hardMaxLayers(c.node(0));
    ModelPlacement p;
    p.nodes = {{0, hard + 1}};
    EXPECT_FALSE(placementValid(p, c, prof));
}

TEST(PlacementValidity, OutOfRangeRejected)
{
    ClusterSpec c = tinyCluster(1);
    Profiler prof(model::catalog::llama30b());
    ModelPlacement p;
    p.nodes = {{58, 5}}; // extends past layer 60
    EXPECT_FALSE(placementValid(p, c, prof));
}

TEST(BottleneckMetric, MinOverLayers)
{
    ClusterSpec c = tinyCluster(2);
    Profiler prof(model::catalog::llama30b());
    ModelPlacement p;
    p.nodes = {{0, 5}, {0, 5}}; // layers 5.. uncovered
    EXPECT_DOUBLE_EQ(bottleneckLayerThroughput(p, c, prof), 0.0);
}

TEST(ConnectionFilter, PruningBoundsDegree)
{
    ClusterSpec c = cluster::setups::geoDistributed24();
    auto filter = ConnectionFilter::pruneByBandwidth(c, 12);
    for (int from = 0; from < c.numNodes(); ++from) {
        int degree = 0;
        for (int to = 0; to < c.numNodes(); ++to) {
            if (to != from && filter.allowed(from, to))
                ++degree;
        }
        EXPECT_LE(degree, 12);
    }
}

TEST(ConnectionFilter, PruningKeepsFastLinksFirst)
{
    ClusterSpec c = cluster::setups::geoDistributed24();
    auto filter = ConnectionFilter::pruneByBandwidth(c, 12);
    // A region-1 node (10 intra peers - itself = 9 intra) keeps all
    // intra links; only 3 cross links survive.
    int region1_node = -1;
    for (int i = 0; i < c.numNodes(); ++i) {
        if (c.node(i).region == 1) {
            region1_node = i;
            break;
        }
    }
    ASSERT_GE(region1_node, 0);
    for (int to = 0; to < c.numNodes(); ++to) {
        if (to == region1_node)
            continue;
        if (c.node(to).region == 1) {
            EXPECT_TRUE(filter.allowed(region1_node, to));
        }
    }
}

/**
 * The paper's Fig. 2 worked example: 3 nodes, given model placement;
 * edge capacities follow the bandwidth/payload arithmetic and the max
 * flow gives the serving throughput.
 */
TEST(PlacementGraphFig2, ReproducesConstruction)
{
    // Three-layer toy model with a 16 KB activation (hidden 4096 at
    // FP32 equivalent; we simply need activation bytes = 16384).
    model::TransformerSpec toy;
    toy.name = "toy3";
    toy.numLayers = 3;
    toy.hiddenSize = 8192;
    toy.numHeads = 64;
    toy.numKvHeads = 8;
    toy.intermediateSize = 28672;
    toy.vocabSize = 32000;

    ClusterSpec c;
    NodeSpec a100{"A100", cluster::gpus::a100_40(), 1, 0};
    NodeSpec t4_1{"T4-1", cluster::gpus::t4(), 1, 0};
    NodeSpec t4_2{"T4-2", cluster::gpus::t4(), 1, 0};
    c.addNode(a100);
    c.addNode(t4_1);
    c.addNode(t4_2);
    // Fig. 2 bandwidths (Mb/s): coord->A100 20, coord<-T4-2 50,
    // A100->T4-1 80, A100->T4-2 40, T4-1->T4-2 60, plus unused others.
    c.setUniformLinks(1e6, 1e-3);
    c.setLink(cluster::kCoordinator, 0, {20e6, 1e-3});
    c.setLink(2, cluster::kCoordinator, {50e6, 1e-3});
    c.setLink(0, 1, {80e6, 1e-3});
    c.setLink(0, 2, {40e6, 1e-3});
    c.setLink(1, 2, {60e6, 1e-3});

    Profiler prof(toy);
    ModelPlacement placement;
    placement.nodes = {{0, 2}, {1, 1}, {2, 1}}; // A100: 1&2, T4s: ...
    // A100 holds layers [0,2), T4-1 holds [1,2)?? Fig 2: A100 holds
    // layers 1-2, T4-1 holds layer 3... our indices: A100 [0,2),
    // T4-1 [2,3)? T4-1 holds layer 3 and T4-2 holds layer 3 as well.
    placement.nodes = {{0, 2}, {2, 1}, {2, 1}};

    PlacementGraph graph(c, prof, placement);
    // Valid connections: coord->A100 (s=0), A100->T4-1, A100->T4-2,
    // T4-1->coord, T4-2->coord (both end at layer 3 = L).
    EXPECT_TRUE(graph.hasConnection(cluster::kCoordinator, 0));
    EXPECT_TRUE(graph.hasConnection(0, 1));
    EXPECT_TRUE(graph.hasConnection(0, 2));
    EXPECT_TRUE(graph.hasConnection(1, cluster::kCoordinator));
    EXPECT_TRUE(graph.hasConnection(2, cluster::kCoordinator));
    EXPECT_FALSE(graph.hasConnection(1, 2)); // same layers: invalid
    EXPECT_FALSE(graph.hasConnection(cluster::kCoordinator, 1));

    // Capacity arithmetic: coordinator link carries 4-byte tokens,
    // A100->T4-1 carries 16 KB activations (Fig. 2b: 625K and 610).
    auto conns = graph.connections();
    for (const auto &conn : conns) {
        if (conn.from == cluster::kCoordinator && conn.to == 0) {
            EXPECT_NEAR(conn.capacity, 20e6 / 8.0 / 4.0, 1.0);
        }
        if (conn.from == 0 && conn.to == 1) {
            EXPECT_NEAR(conn.capacity, 80e6 / 8.0 / 16384.0, 1.0);
        }
    }

    // Max flow is limited by network and node capacities and must be
    // positive and no larger than the coordinator ingress capacity.
    double flow = graph.maxThroughput();
    EXPECT_GT(flow, 0.0);
    EXPECT_LE(flow, 20e6 / 8.0 / 4.0 + 1.0);
}

TEST(PlacementGraph, UnusedNodesExcluded)
{
    ClusterSpec c = tinyCluster(3);
    Profiler prof(model::catalog::llama30b());
    int k = prof.maxLayers(c.node(0));
    ModelPlacement p;
    p.nodes = {{0, k}, {0, 0}, {0, k}};
    PlacementGraph graph(c, prof, p);
    EXPECT_FALSE(graph.hasConnection(0, 1));
    EXPECT_FALSE(graph.hasConnection(cluster::kCoordinator, 1));
}

TEST(PlacementGraph, FlowZeroWithoutCoverage)
{
    ClusterSpec c = tinyCluster(2);
    Profiler prof(model::catalog::llama30b());
    ModelPlacement p;
    p.nodes = {{0, 5}, {5, 5}}; // covers only [0, 10) of 60
    PlacementGraph graph(c, prof, p);
    EXPECT_DOUBLE_EQ(graph.maxThroughput(), 0.0);
}

TEST(PlacementGraph, FlowConservationAtConnections)
{
    ClusterSpec c = cluster::setups::plannerCluster10();
    // Two replica chains of five nodes, each tiling a 30-layer model
    // in 6-layer stages (6 <= every node's VRAM limit).
    ModelPlacement p;
    p.nodes.resize(10);
    model::TransformerSpec toy = model::catalog::llama30b();
    toy.numLayers = 30;
    Profiler prof30(toy);
    for (int chain = 0; chain < 2; ++chain) {
        int at = 0;
        for (int j = 0; j < 5; ++j) {
            int node = chain * 5 + j;
            p[node] = {at, 6};
            at += 6;
        }
    }
    PlacementGraph graph(c, prof30, p);
    double flow = graph.maxThroughput();
    EXPECT_GT(flow, 0.0);
    // Flow into each node equals flow out of it.
    for (int node = 0; node < 10; ++node) {
        double in = 0.0;
        double out = 0.0;
        for (const auto &conn : graph.connections()) {
            if (conn.to == node)
                in += conn.flow;
            if (conn.from == node)
                out += conn.flow;
        }
        EXPECT_NEAR(in, out, 1e-4 * std::max(1.0, flow));
    }
}

TEST(PlacementGraph, PartialInferenceConnectsOverlap)
{
    ClusterSpec c = tinyCluster(2);
    Profiler prof(model::catalog::llama30b());
    ModelPlacement p;
    p.nodes = {{0, 6}, {4, 7}}; // overlap: partial inference needed
    PlacementGraph graph(c, prof, p);
    EXPECT_TRUE(graph.hasConnection(0, 1));
    EXPECT_FALSE(graph.hasConnection(1, 0));
}

/** Randomized-budget scale: HELIX_FUZZ_ITERS or the default. */
int
fuzzRounds(int default_rounds)
{
    const char *env = std::getenv("HELIX_FUZZ_ITERS");
    if (!env || *env == '\0')
        return default_rounds;
    int value = std::atoi(env);
    return value > 0 ? value : default_rounds;
}

/** Rows @p x and @p y hold the same targets in the same slots. */
void
expectSameRow(ConnectionTable::Row x, ConnectionTable::Row y)
{
    EXPECT_EQ(x.firstSlot, y.firstSlot);
    EXPECT_EQ(std::vector<int>(x.begin(), x.end()),
              std::vector<int>(y.begin(), y.end()));
}

/**
 * @p reused, rebuilt in place by PlacementGraph::assign, must equal
 * @p fresh, built for the same placement, vertex block for vertex
 * block and arc for arc, with the same connection rows, and solve to
 * the same flow on every arc in the solver storage @p solver, which
 * it keeps across rebuilds.
 */
void
expectSameGraph(PlacementGraph &reused,
                std::optional<flow::PreflowPush> &solver,
                PlacementGraph &fresh, int n)
{
    const flow::FlowGraph &a = reused.graph();
    const flow::FlowGraph &b = fresh.graph();
    ASSERT_EQ(a.numNodes(), b.numNodes());
    ASSERT_EQ(a.numArcs(), b.numArcs());
    ASSERT_EQ(a.numEdges(), b.numEdges());
    ASSERT_EQ(reused.connectionTable().size(), fresh.connectionTable().size());
    for (int from = cluster::kCoordinator; from < n; ++from) {
        SCOPED_TRACE(::testing::Message() << "row " << from);
        expectSameRow(reused.connectionTable().row(from),
                      fresh.connectionTable().row(from));
    }
    EXPECT_EQ(reused.maxThroughput(solver), fresh.maxThroughput());
    for (flow::NodeId v = 0; static_cast<size_t>(v) < a.numNodes(); ++v)
        EXPECT_EQ(a.arcBegin(v), b.arcBegin(v)) << "vertex " << v;
    for (flow::ArcId x = 0; static_cast<size_t>(x) < a.numArcs(); ++x) {
        EXPECT_EQ(a.head(x), b.head(x)) << "arc " << x;
        EXPECT_EQ(a.twin(x), b.twin(x)) << "arc " << x;
        EXPECT_EQ(a.originalUnits(x), b.originalUnits(x)) << "arc " << x;
        EXPECT_EQ(a.arc(x).residual, b.arc(x).residual) << "arc " << x;
    }
}

/**
 * Check a placement graph against the pair-by-pair oracle: every
 * (from, to) pair, coordinator included, is tested against Sec. 4.3's
 * criteria (connectionValid, then @p filter), and
 * connections() must list exactly the valid ones, row-major with the
 * coordinator first. The graph's ConnectionTable must give each of
 * them a slot, densely in that same order, and no other pair one. A
 * Topology built from the graph must list the same rows, per vertex
 * exactly its positive-flow slots in row order with their flows, and 0
 * as the flow of every other slot; the HelixScheduler built on it must
 * select among exactly those targets with those weights. Without a
 * filter, isConnection (the simulator's link rule) must agree with the
 * table on every pair, and sim::Links made in reverse slot order must
 * report in slot order. The forward edges must come in construction order:
 * each holder's compute edge in node order, then per holder i
 * coordinator -> i, i -> coordinator and i -> j by ascending j, so
 * edge ids (and with them preflow-push flows) stay fixed. Each edge
 * joins the right vertices: a compute edge runs inVertex(i) ->
 * outVertex(i), a connection i -> j runs outVertex(i) -> inVertex(j),
 * and the coordinator's ends are source() and sink(), all distinct.
 */
void
expectConnectionsMatchOracle(const ClusterSpec &c, const Profiler &prof,
                             const ModelPlacement &p,
                             const ConnectionFilter *filter = nullptr)
{
    const int n = c.numNodes();
    const int layers = prof.modelSpec().numLayers;
    PlacementGraph graph(c, prof, p, filter);
    (void)graph.maxThroughput();
    auto expected = [&](int from, int to) {
        if (from == cluster::kCoordinator)
            return p[to].count > 0 && p[to].start == 0;
        if (to == cluster::kCoordinator)
            return p[from].count > 0 && p[from].end() == layers;
        return connectionValid(p[from], p[to]) &&
               (!filter || filter->allowed(from, to));
    };
    const ConnectionTable &table = graph.connectionTable();
    std::vector<std::pair<int, int>> want;
    for (int from = cluster::kCoordinator; from < n; ++from) {
        for (int to = cluster::kCoordinator; to < n; ++to) {
            if (from == to)
                continue;
            EXPECT_EQ(graph.hasConnection(from, to), expected(from, to))
                << from << " -> " << to;
            const uint32_t slot = table.slot(from, to);
            if (expected(from, to)) {
                EXPECT_EQ(slot, want.size()) << from << " -> " << to;
                want.emplace_back(from, to);
            } else {
                EXPECT_EQ(slot, ConnectionTable::kNoSlot)
                    << from << " -> " << to;
                EXPECT_EQ(graph.connectionFlow(from, to), 0.0);
            }
        }
    }
    ASSERT_EQ(table.size(), want.size());
    auto conns = graph.connections();
    ASSERT_EQ(conns.size(), want.size());
    for (size_t i = 0; i < conns.size(); ++i) {
        EXPECT_EQ(conns[i].from, want[i].first) << i;
        EXPECT_EQ(conns[i].to, want[i].second) << i;
        EXPECT_EQ(graph.connectionFlow(conns[i].from, conns[i].to),
                  conns[i].flow);
    }

    // The topology lists the table's rows, and per vertex exactly the
    // connections with positive flow, in row order; flow() is 0 on
    // every other slot. The Helix scheduler's selectors are those
    // lists.
    const scheduler::Topology topo(c, prof, p, graph);
    const scheduler::HelixScheduler sched(topo);
    for (int from = cluster::kCoordinator; from < n; ++from) {
        SCOPED_TRACE(::testing::Message() << "row " << from);
        const ConnectionTable::Row row = table.row(from);
        expectSameRow(topo.outEdges(from), row);
        std::vector<int> targets;
        std::vector<uint32_t> slots;
        std::vector<double> flows;
        for (size_t k = 0; k < row.size(); ++k) {
            const uint32_t slot = row.firstSlot + static_cast<uint32_t>(k);
            const double flow = graph.connectionFlow(from, row[k]);
            EXPECT_EQ(topo.flow(slot), flow) << from << " -> " << row[k];
            if (flow > 0.0) {
                targets.push_back(row[k]);
                slots.push_back(slot);
                flows.push_back(flow);
            }
        }
        std::vector<int> listed_targets;
        std::vector<uint32_t> listed_slots;
        std::vector<double> listed_flows;
        for (const scheduler::Topology::FlowEdge &edge :
             topo.flowEdges(from)) {
            listed_targets.push_back(edge.target);
            listed_slots.push_back(edge.slot);
            listed_flows.push_back(edge.flow);
        }
        EXPECT_EQ(listed_targets, targets);
        EXPECT_EQ(listed_slots, slots);
        EXPECT_EQ(listed_flows, flows);
        EXPECT_EQ(sched.selector(from).candidates(), targets);
        EXPECT_EQ(sched.selector(from).weights(), flows);
    }
    std::vector<std::pair<int, int>> order;
    for (int i = 0; i < n; ++i) {
        if (p[i].count > 0)
            order.emplace_back(i, i);
    }
    for (int i = 0; i < n; ++i) {
        if (p[i].count == 0)
            continue;
        if (expected(cluster::kCoordinator, i))
            order.emplace_back(cluster::kCoordinator, i);
        if (expected(i, cluster::kCoordinator))
            order.emplace_back(i, cluster::kCoordinator);
        for (int j = 0; j < n; ++j) {
            if (j != i && expected(i, j))
                order.emplace_back(i, j);
        }
    }
    // A pair (i, i) is i's compute edge; any other pair a connection.
    auto tail = [&](int from, int to) {
        if (from == to)
            return graph.inVertex(from);
        return from == cluster::kCoordinator ? graph.source()
                                             : graph.outVertex(from);
    };
    auto head = [&](int from, int to) {
        if (from == to)
            return graph.outVertex(to);
        return to == cluster::kCoordinator ? graph.sink()
                                           : graph.inVertex(to);
    };
    // The arcs must sit where adding the edges in this order puts
    // them: edge k's forward arc leaves tail and enters head, it is the
    // graph's compute or connection arc of its pair, and every arc of
    // every vertex block matches that layout.
    const flow::FlowGraph &net = graph.graph();
    ASSERT_EQ(net.numEdges(), order.size());
    flow::EdgeList layout;
    for (size_t v = 0; v < net.numNodes(); ++v)
        layout.addNode();
    for (const auto &[from, to] : order)
        layout.addEdge(tail(from, to), head(from, to), 0.0);
    std::vector<flow::ArcId> forward;
    const flow::FlowGraph want_net = layout.build(&forward);
    ASSERT_EQ(net.numArcs(), want_net.numArcs());
    for (size_t k = 0; k < order.size(); ++k) {
        const auto [from, to] = order[k];
        EXPECT_EQ(net.tail(forward[k]), tail(from, to)) << k;
        EXPECT_EQ(net.head(forward[k]), head(from, to)) << k;
        EXPECT_EQ(forward[k],
                  from == to ? graph.computeEdge(from)
                             : graph.connectionArc(
                                   from, table.slot(from, to) -
                                             table.row(from).firstSlot))
            << k;
    }
    for (flow::ArcId a = 0; static_cast<size_t>(a) < net.numArcs(); ++a) {
        EXPECT_EQ(net.head(a), want_net.head(a)) << "arc " << a;
        EXPECT_EQ(net.twin(a), want_net.twin(a)) << "arc " << a;
        EXPECT_EQ(net.isForward(a), want_net.isForward(a)) << "arc " << a;
    }

    EXPECT_NE(graph.source(), graph.sink());
    std::set<flow::NodeId> vertices{graph.source(), graph.sink()};
    size_t holders = 0;
    for (int i = 0; i < n; ++i) {
        if (p[i].count == 0)
            continue;
        ++holders;
        EXPECT_NE(graph.inVertex(i), graph.outVertex(i)) << i;
        vertices.insert(graph.inVertex(i));
        vertices.insert(graph.outVertex(i));
    }
    EXPECT_EQ(vertices.size(), net.numNodes());
    EXPECT_EQ(net.numNodes(), 2 + 2 * holders);

    if (!filter) {
        // Without a filter the simulator's rule for the links that may
        // carry traffic is the table. Links made in reverse slot order
        // report their statistics in slot order.
        sim::Links links(c, p, layers, prof.activationBytes(), true);
        for (auto it = want.rbegin(); it != want.rend(); ++it) {
            const uint32_t link = links.index(it->first, it->second);
            EXPECT_EQ(links.index(it->first, it->second), link);
            (void)links.transfer(link, 1.0, 0.0);
        }
        const std::vector<sim::LinkStat> stats = links.stats();
        ASSERT_EQ(stats.size(), want.size());
        for (size_t i = 0; i < stats.size(); ++i) {
            EXPECT_EQ(stats[i].from, want[i].first) << i;
            EXPECT_EQ(stats[i].to, want[i].second) << i;
            EXPECT_EQ(stats[i].transfers, 1) << i;
        }
        for (int from = cluster::kCoordinator; from < n; ++from) {
            for (int to = cluster::kCoordinator; to < n; ++to) {
                if (from != to) {
                    EXPECT_EQ(isConnection(p, layers, from, to),
                              expected(from, to))
                        << from << " -> " << to;
                }
            }
        }
    }
}

/** Random placement of @p n nodes over @p layers layers; about one
 *  node in five holds none. */
ModelPlacement
randomPlacement(Rng &rng, int n, int layers)
{
    ModelPlacement p;
    p.nodes.resize(n);
    for (NodePlacement &node : p.nodes) {
        if (rng.nextBounded(5) == 0)
            continue; // holds no layers
        node.start = static_cast<int>(rng.nextInt(0, layers - 1));
        node.count =
            static_cast<int>(rng.nextInt(1, layers - node.start));
    }
    return p;
}

TEST(PlacementGraph, ConnectionsMatchTheCriteriaInRowMajorOrder)
{
    // Overlapping ranges, a first-layer and a last-layer holder that
    // are not node 0, and an empty node, then random placements of the
    // same shape, all with no filter.
    const int n = 7;
    ClusterSpec c = tinyCluster(n);
    Profiler prof(model::catalog::llama30b());
    const int layers = prof.modelSpec().numLayers;

    ModelPlacement fixed;
    fixed.nodes = {{20, 10}, {0, 10}, {5, 20}, {30, 30}, {0, 0},
                   {25, 35}, {0, 22}};
    expectConnectionsMatchOracle(c, prof, fixed);

    Rng rng(0x9a7e);
    for (int round = 0; round < 50; ++round) {
        SCOPED_TRACE(round);
        expectConnectionsMatchOracle(c, prof,
                                     randomPlacement(rng, n, layers));
    }
}

TEST(PlacementGraph, ConnectionsMatchTheOracleWithAndWithoutAFilter)
{
    // The same oracle without and with a bandwidth pruning filter, on
    // an 8-layer model so that exact chains (e_from == s_to), overlaps
    // and near misses (s_to == e_from + 1) are all common. Every
    // directed pair gets its own random bandwidth, so pruning keeps a
    // different subset per node. Each round also rebuilds one graph in
    // place (PlacementGraph::assign) and compares it with a fresh one.
    // Rounds scale with HELIX_FUZZ_ITERS.
    const int n = 7;
    model::TransformerSpec toy = model::catalog::llama30b();
    toy.numLayers = 8;
    Profiler prof(toy);
    Rng rng(0xc0de);
    const int rounds = fuzzRounds(200);
    std::optional<PlacementGraph> reused[2];
    std::optional<flow::PreflowPush> solvers[2];
    for (int round = 0; round < rounds; ++round) {
        ClusterSpec c = tinyCluster(n);
        std::vector<cluster::LinkOverride> links;
        for (int from = 0; from < n; ++from) {
            for (int to = 0; to < n; ++to) {
                if (from != to) {
                    cluster::LinkSpec link;
                    link.bandwidthBps = 1e9 * (1.0 + rng.nextDouble());
                    link.latencyS = 1e-3;
                    links.push_back({from, to, link});
                }
            }
        }
        c.setLinks(std::move(links));
        const int degree = 1 + static_cast<int>(rng.nextBounded(n - 1));
        const ConnectionFilter filter =
            ConnectionFilter::pruneByBandwidth(c, degree);
        const ConnectionFilter *filters[] = {nullptr, &filter};
        const ModelPlacement p = randomPlacement(rng, n, toy.numLayers);
        for (const ConnectionFilter *f : filters) {
            SCOPED_TRACE(::testing::Message()
                         << "round " << round << " filter "
                         << (f != nullptr) << " degree " << degree);
            expectConnectionsMatchOracle(c, prof, p, f);
            // One graph per filter setting, rebuilt in place every
            // round, must equal a fresh one. It rebuilds its table in
            // place too, except on odd rounds, when another owner (as
            // a Topology would) holds the old table, which must then
            // survive the rebuild as it was.
            std::optional<PlacementGraph> &graph = reused[f != nullptr];
            if (!graph) {
                graph.emplace(c, prof, p, f);
                continue;
            }
            std::shared_ptr<const ConnectionTable> held;
            std::optional<ConnectionTable> copy;
            if (round % 2 == 1) {
                held = graph->sharedConnectionTable();
                copy.emplace(*held);
            }
            const ConnectionTable *before = &graph->connectionTable();
            graph->assign(c, prof, p, f);
            PlacementGraph fresh(c, prof, p, f);
            expectSameGraph(*graph, solvers[f != nullptr], fresh, n);
            if (!held) {
                EXPECT_EQ(&graph->connectionTable(), before);
                continue;
            }
            EXPECT_NE(&graph->connectionTable(), held.get());
            ASSERT_EQ(held->size(), copy->size());
            for (int from = cluster::kCoordinator; from < n; ++from)
                expectSameRow(held->row(from), copy->row(from));
        }
    }
}

TEST(ConnectionTable, RowsShareOneHolderListPerLayer)
{
    // Without a filter every row is a per-layer holder list: holders
    // that end on the same layer share one row's storage, the
    // coordinator's row is layer 0's list, and the table stores at most
    // the placement's sum of layer counts + 1 targets (the coordinator
    // once, for the rows that return to it). With a filter each row is
    // the unfiltered row minus the pruned node pairs, exactly.
    const int n = 30;
    const int layers = 8;
    Rng rng(0x5a4e);
    const int rounds = fuzzRounds(50);
    for (int round = 0; round < rounds; ++round) {
        SCOPED_TRACE(round);
        const ModelPlacement p = randomPlacement(rng, n, layers);
        const ConnectionTable table(p, layers);
        size_t counts = 0;
        for (const NodePlacement &node : p.nodes)
            counts += static_cast<size_t>(node.count);
        EXPECT_LE(table.storedTargets(), counts + 1);
        for (int i = 0; i < n; ++i) {
            if (p[i].count == 0) {
                EXPECT_EQ(table.row(i).size(), 0u) << i;
                continue;
            }
            for (int j = i + 1; j < n; ++j) {
                if (p[j].count > 0 && p[j].end() == p[i].end()) {
                    EXPECT_EQ(table.row(i).begin(), table.row(j).begin())
                        << i << " and " << j << " end on " << p[i].end();
                }
            }
        }

        ClusterSpec c = tinyCluster(n);
        std::vector<cluster::LinkOverride> overrides;
        for (int from = 0; from < n; ++from) {
            for (int to = 0; to < n; ++to) {
                if (from != to) {
                    cluster::LinkSpec link;
                    link.bandwidthBps = 1e9 * (1.0 + rng.nextDouble());
                    link.latencyS = 1e-3;
                    overrides.push_back({from, to, link});
                }
            }
        }
        c.setLinks(std::move(overrides));
        const ConnectionFilter filter = ConnectionFilter::pruneByBandwidth(
            c, 1 + static_cast<int>(rng.nextBounded(n - 1)));
        const ConnectionTable pruned(p, layers, &filter);
        uint32_t slot = 0;
        for (int from = cluster::kCoordinator; from < n; ++from) {
            std::vector<int> want;
            for (int to : table.row(from)) {
                if (from == cluster::kCoordinator ||
                    to == cluster::kCoordinator || filter.allowed(from, to))
                    want.push_back(to);
            }
            const ConnectionTable::Row row = pruned.row(from);
            EXPECT_EQ(std::vector<int>(row.begin(), row.end()), want)
                << "row " << from;
            EXPECT_EQ(row.firstSlot, slot) << "row " << from;
            slot += static_cast<uint32_t>(want.size());
        }
        EXPECT_EQ(pruned.size(), slot);
    }
}

} // namespace
} // namespace placement
} // namespace helix
