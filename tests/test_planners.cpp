/**
 * @file
 * Tests for the model-placement planners: baseline heuristics produce
 * valid placements with the structural properties the paper describes,
 * the oracle MILP formulation round-trips placements and matches brute
 * force on tiny clusters, the Helix planner dominates the heuristics in
 * max-flow terms and reaches the proven optimum of a tiny instance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <ios>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/generator.h"
#include "cluster/profiler.h"
#include "flow/graph.h"
#include "model/transformer.h"
#include "oracle/branch_and_bound.h"
#include "oracle/milp_formulation.h"
#include "placement/helix_planner.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "placement/portfolio.h"
#include "util/compare.h"
#include "util/random.h"
#include "util/timer.h"

namespace helix {
namespace placement {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Profiler;

double
flowOf(const ClusterSpec &c, const Profiler &prof,
       const ModelPlacement &p)
{
    PlacementGraph graph(c, prof, p);
    return graph.maxThroughput();
}

/** One node per GPU in @p gpus, on uniform @p bandwidth, 1 ms links. */
ClusterSpec
tinyCluster(const std::vector<cluster::GpuSpec> &gpus,
            double bandwidth = 10e9)
{
    ClusterSpec c;
    for (size_t i = 0; i < gpus.size(); ++i)
        c.addNode({"n" + std::to_string(i), gpus[i], 1, 0});
    c.setUniformLinks(bandwidth, 1e-3);
    return c;
}

/** @p base cut to its first @p layers layers. */
model::TransformerSpec
toyModel(model::TransformerSpec base, int layers)
{
    base.numLayers = layers;
    return base;
}

class PlannerFixture : public ::testing::Test
{
  protected:
    ClusterSpec cluster = cluster::setups::singleCluster24();
    model::TransformerSpec model_spec = model::catalog::llama70b();
    Profiler profiler{model_spec};
};

TEST_F(PlannerFixture, SwarmUsesUniformStageDepth)
{
    SwarmPlanner planner;
    ModelPlacement p = planner.plan(cluster, profiler);
    EXPECT_TRUE(placementValid(p, cluster, profiler));
    // Every node holds the same number of layers (even partition by
    // the weakest GPU), up to the +-1 remainder spread.
    std::set<int> counts;
    for (const auto &node : p.nodes)
        counts.insert(node.count);
    EXPECT_LE(counts.size(), 2u);
    EXPECT_GT(flowOf(cluster, profiler, p), 0.0);
}

TEST_F(PlannerFixture, SwarmStagesCoverModelEvenly)
{
    SwarmPlanner planner;
    ModelPlacement p = planner.plan(cluster, profiler);
    // Stage boundaries tile [0, L).
    std::set<std::pair<int, int>> stages;
    for (const auto &node : p.nodes)
        stages.insert({node.start, node.end()});
    int at = 0;
    for (auto [s, e] : stages) {
        EXPECT_EQ(s, at);
        at = e;
    }
    EXPECT_EQ(at, model_spec.numLayers);
}

TEST_F(PlannerFixture, PetalsFillsLeastServedWindows)
{
    PetalsPlanner planner;
    ModelPlacement p = planner.plan(cluster, profiler);
    EXPECT_TRUE(placementValid(p, cluster, profiler));
    // Each node serves its full VRAM window (greedy join behavior).
    for (int i = 0; i < cluster.numNodes(); ++i) {
        EXPECT_EQ(p[i].count,
                  std::min(profiler.maxLayers(cluster.node(i)),
                           model_spec.numLayers));
    }
    EXPECT_GT(flowOf(cluster, profiler, p), 0.0);
}

TEST_F(PlannerFixture, SeparatePipelinesFormDisjointReplicas)
{
    SeparatePipelinesPlanner planner(false);
    ModelPlacement p = planner.plan(cluster, profiler);
    EXPECT_TRUE(placementValid(p, cluster, profiler));
    // On the 70B model no single type can serve a replica at half
    // VRAM; groups pack harder instead, so every node of each type
    // participates in a tiling of [0, L).
    double flow = flowOf(cluster, profiler, p);
    EXPECT_GT(flow, 0.0);
}

TEST_F(PlannerFixture, SpPlusUsesLeftovers)
{
    // On LLaMA 30B each type forms replicas; leftovers appear when a
    // group has more nodes than replicas consume.
    Profiler prof30(model::catalog::llama30b());
    SeparatePipelinesPlanner sp(false);
    SeparatePipelinesPlanner sp_plus(true);
    ModelPlacement p1 = sp.plan(cluster, prof30);
    ModelPlacement p2 = sp_plus.plan(cluster, prof30);
    auto unused = [](const ModelPlacement &p) {
        int count = 0;
        for (const auto &node : p.nodes)
            count += node.count == 0;
        return count;
    };
    EXPECT_LE(unused(p2), unused(p1));
}

TEST_F(PlannerFixture, UniformPartitionSequential)
{
    UniformPlanner planner;
    Profiler prof30(model::catalog::llama30b());
    ModelPlacement p = planner.plan(cluster, prof30);
    // Sequential coverage: starts are non-decreasing in node order.
    int prev_end = 0;
    for (const auto &node : p.nodes) {
        if (node.count == 0)
            continue;
        EXPECT_EQ(node.start, prev_end);
        prev_end = node.end();
    }
}

TEST_F(PlannerFixture, HelixBeatsBaselinesOnMaxFlow)
{
    HelixPlannerConfig config;
    config.timeBudgetSeconds = 3.0;
    HelixPlanner helix(config);
    SwarmPlanner swarm;
    PetalsPlanner petals;
    ModelPlacement hp = helix.plan(cluster, profiler);
    EXPECT_TRUE(placementValid(hp, cluster, profiler));
    double helix_flow = flowOf(cluster, profiler, hp);
    EXPECT_GE(helix_flow,
              flowOf(cluster, profiler,
                     swarm.plan(cluster, profiler)) -
                  1e-6);
    EXPECT_GE(helix_flow,
              flowOf(cluster, profiler,
                     petals.plan(cluster, profiler)) -
                  1e-6);
    // Planner diagnostics are filled in.
    EXPECT_GT(helix.report().bestThroughput, 0.0);
    EXPECT_GT(helix.report().upperBound, 0.0);
    EXPECT_GT(helix.report().candidatesEvaluated, 0);
}

TEST_F(PlannerFixture, HelixRespectsHalfVramRule)
{
    HelixPlannerConfig config;
    config.timeBudgetSeconds = 2.0;
    HelixPlanner helix(config);
    ModelPlacement p = helix.plan(cluster, profiler);
    for (int i = 0; i < cluster.numNodes(); ++i) {
        if (p[i].count > 0) {
            EXPECT_LE(p[i].count,
                      profiler.maxLayers(cluster.node(i)));
        }
    }
}

TEST(PlannerEdgeCases, EmptyClusterProducesEmptyPlacement)
{
    ClusterSpec empty;
    empty.setUniformLinks(1e9, 1e-3);
    Profiler prof(model::catalog::llama30b());
    UniformPlanner uniform;
    PetalsPlanner petals;
    SwarmPlanner swarm;
    SeparatePipelinesPlanner sp(false);
    EXPECT_TRUE(uniform.plan(empty, prof).nodes.empty());
    EXPECT_TRUE(petals.plan(empty, prof).nodes.empty());
    EXPECT_TRUE(swarm.plan(empty, prof).nodes.empty());
    EXPECT_TRUE(sp.plan(empty, prof).nodes.empty());
    PlacementGraph graph(empty, prof, ModelPlacement{});
    EXPECT_DOUBLE_EQ(graph.maxThroughput(), 0.0);
}

TEST(PlannerEdgeCases, SingleGpuHoldsWholeModel)
{
    // A model small enough for one A100 must be placed whole on the
    // single node, and the resulting one-node pipeline must serve.
    model::TransformerSpec toy;
    toy.name = "toy4";
    toy.numLayers = 4;
    toy.hiddenSize = 2048;
    toy.numHeads = 16;
    toy.numKvHeads = 16;
    toy.intermediateSize = 5504;
    toy.vocabSize = 32000;

    ClusterSpec solo;
    solo.addNode({"solo", cluster::gpus::a100_80(), 1, 0});
    solo.setUniformLinks(1e9, 1e-3);
    Profiler prof(toy);

    UniformPlanner uniform;
    PetalsPlanner petals;
    SwarmPlanner swarm;
    for (Planner *planner :
         std::initializer_list<Planner *>{&uniform, &petals, &swarm}) {
        ModelPlacement p = planner->plan(solo, prof);
        ASSERT_EQ(p.nodes.size(), 1u) << planner->name();
        EXPECT_EQ(p[0].start, 0) << planner->name();
        EXPECT_EQ(p[0].count, toy.numLayers) << planner->name();
        EXPECT_TRUE(placementValid(p, solo, prof)) << planner->name();
        EXPECT_GT(flowOf(solo, prof, p), 0.0) << planner->name();
    }
}

TEST(FlowSearchTest, ImprovesOnPoorSeed)
{
    ClusterSpec c = cluster::setups::plannerCluster10();
    Profiler prof(model::catalog::llama30b());
    HelixPlannerConfig config;
    config.timeBudgetSeconds = 2.0;
    FlowSearch search(c, prof, config);
    // Seed: minimal single-layer placements (poor coverage).
    ModelPlacement seed;
    seed.nodes.assign(10, {0, 1});
    HelixPlannerReport report;
    ModelPlacement best =
        search.run({seed}, prof.throughputUpperBound(c), report);
    EXPECT_GT(report.bestThroughput, 0.0);
    EXPECT_GE(report.bestThroughput, search.evaluate(seed));
    EXPECT_GT(report.candidatesSolved, 0);
    EXPECT_LE(report.candidatesSolved, report.candidatesEvaluated);
}

TEST(FlowSearchTest, EvaluateIsPinnedBitForBit)
{
    // FlowSearch::evaluate is the planner's objective: one placement
    // graph and its max flow. These values pin it exactly on the
    // heuristic placements of two paper clusters, and the max flow of
    // the same placements' graphs under bandwidth pruning (each node
    // keeps its 12 fastest outgoing connections). On hetero42 the
    // pruned graph disconnects the Swarm and Petals placements, so
    // those rows pin an exact 0.
    struct Setup
    {
        const char *name;
        ClusterSpec cluster;
        model::TransformerSpec model;
    };
    const Setup setups[] = {
        {"hetero42/llama70b", cluster::setups::highHeterogeneity42(),
         model::catalog::llama70b()},
        {"geo24/llama30b", cluster::setups::geoDistributed24(),
         model::catalog::llama30b()},
    };
    // Row order: setup, then planner (swarm, petals, sp, sp+), then
    // pruning (off, on).
    const double expected[] = {
        // hetero42/llama70b
        0x1.9220c3b6p+11, 0x0p+0, // swarm
        0x1.c007f3cap+11, 0x0p+0, // petals
        0x1.a2b911f4p+11, 0x1.9baff788p+9, // sp
        0x1.a2b911f4p+11, 0x1.9baff788p+9, // sp+
        // geo24/llama30b
        0x1.ebb25ffp+10, 0x1.ebb25ffp+9, // swarm
        0x1.e5c82d8p+10, 0x1.226c8d08p+10, // petals
        0x1.2ec5c976p+11, 0x1.2f16d088p+10, // sp
        0x1.2ec5c976p+11, 0x1.2f16d088p+10, // sp+
    };
    size_t row = 0;
    for (const Setup &setup : setups) {
        Profiler prof(setup.model);
        std::vector<std::pair<const char *, ModelPlacement>> placements;
        placements.emplace_back("swarm",
                                SwarmPlanner().plan(setup.cluster, prof));
        placements.emplace_back("petals",
                                PetalsPlanner().plan(setup.cluster, prof));
        placements.emplace_back(
            "sp", SeparatePipelinesPlanner(false).plan(setup.cluster, prof));
        placements.emplace_back(
            "sp+", SeparatePipelinesPlanner(true).plan(setup.cluster, prof));
        const FlowSearch search(setup.cluster, prof, HelixPlannerConfig{});
        const ConnectionFilter filter =
            ConnectionFilter::pruneByBandwidth(setup.cluster, 12);
        for (const auto &[planner, placement] : placements) {
            for (bool pruning : {false, true}) {
                const double got =
                    pruning ? PlacementGraph(setup.cluster, prof, placement,
                                             &filter)
                                  .maxThroughput()
                            : search.evaluate(placement);
                ASSERT_LT(row, std::size(expected));
                EXPECT_TRUE(sameValue(got, expected[row]))
                    << setup.name << " " << planner
                    << " pruning=" << pruning << ": got "
                    << std::hexfloat << got << ", want "
                    << expected[row];
                ++row;
            }
        }
    }
    EXPECT_EQ(row, std::size(expected));
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

/** LLaMA-70B on a cluster whose placements are compute-bound
 *  (hetero42) and on one whose placements can be link-bound
 *  (geo24). */
struct BoundSetup
{
    const char *name;
    ClusterSpec cluster;
};

std::vector<BoundSetup>
boundSetups()
{
    return {{"hetero42/llama70b", cluster::setups::highHeterogeneity42()},
            {"geo24/llama70b", cluster::setups::geoDistributed24()}};
}

TEST(FlowSearchTest, LayerBoundCapsTheMaxFlowOfRandomPlacements)
{
    // Random placements, sparse to dense: each node holds nothing with
    // probability up to 0.9, else a window of up to `widest` layers
    // within its half-VRAM limit, but one time in eight up to the
    // whole model (capacity 0 past its VRAM); half the windows take
    // the full width. In scattered rounds each window starts anywhere,
    // so layers are often left uncovered; in chained rounds each
    // starts at or before where the last one ended, wrapping at the
    // last layer, so enough holders cover the model and carry flow.
    // The bound must equal the least per-layer sum of the holders'
    // capacities, taken here from the profiler, and never fall below
    // the solved max flow, both exact in flow units; a layer without
    // holders bounds it to 0. HELIX_FUZZ_ITERS sets the placements
    // drawn in all.
    const int rounds = std::max(1, fuzzRounds(400) / 2);
    const Profiler prof(model::catalog::llama70b());
    const int layers = prof.modelSpec().numLayers;
    Rng rng(0xb0b0);
    long uncovered = 0;
    long flowing = 0;
    for (const BoundSetup &setup : boundSetups()) {
        const int n = setup.cluster.numNodes();
        const FlowSearch search(setup.cluster, prof, HelixPlannerConfig{});
        for (int round = 0; round < rounds; ++round) {
            const double dense = rng.nextDouble();
            const double empty = 0.9 * dense * dense;
            const int widest =
                1 + static_cast<int>(rng.nextBounded(layers));
            const bool chained = rng.nextBounded(2) == 0;
            int at = 0;
            ModelPlacement p;
            p.nodes.resize(n);
            std::vector<flow::Units> held(layers, 0);
            std::vector<int> holders(layers, 0);
            for (int i = 0; i < n; ++i) {
                if (rng.nextDouble() < empty)
                    continue;
                const int most =
                    rng.nextBounded(8) == 0
                        ? layers
                        : prof.maxLayers(setup.cluster.node(i));
                const int wide = std::clamp(most, 1, widest);
                const int count =
                    rng.nextBounded(2) == 0
                        ? wide
                        : 1 + static_cast<int>(rng.nextBounded(wide));
                const int start =
                    chained
                        ? std::clamp(at - static_cast<int>(
                                              rng.nextBounded(count)),
                                     0, layers - count)
                        : static_cast<int>(
                              rng.nextBounded(layers - count + 1));
                p[i] = {start, count};
                at = p[i].end() == layers ? 0 : p[i].end();
                const flow::Units c = flow::toUnits(
                    prof.decodeThroughput(setup.cluster.node(i), count));
                for (int l = start; l < start + count; ++l) {
                    held[l] += c;
                    ++holders[l];
                }
            }
            const flow::Units bound = search.layerBound(p);
            const flow::Units value = flow::toUnits(search.evaluate(p));
            const auto where = [&] {
                return std::string(setup.name) + " round " +
                       std::to_string(round);
            };
            ASSERT_EQ(bound, *std::min_element(held.begin(), held.end()))
                << where();
            ASSERT_LE(value, bound) << where();
            if (std::count(holders.begin(), holders.end(), 0) > 0) {
                ASSERT_EQ(bound, 0) << where();
                ++uncovered;
            }
            flowing += value > 0;
        }
    }
    // The draws reach both kinds of placement.
    EXPECT_GT(uncovered, 0);
    EXPECT_GT(flowing, 0);
}

TEST(FlowSearchTest, SkippedCandidatesFailTheAcceptanceTest)
{
    // Replays the annealer's steps on fixed-Rng mutate chains from the
    // heuristic placements, as FlowSearch::run takes them: 1-3 moves,
    // then the step's uniform draw, at temperatures from the run's
    // first to its last. Every candidate
    // is solved here, and its max flow must not exceed its layer
    // bound. Each one the run would skip, because its bound fails
    // annealingAccepts, must fail it on its max flow too and must not
    // beat the incumbent; accepted candidates become the current
    // state.
    constexpr int kSteps = 400;
    const Profiler prof(model::catalog::llama70b());
    long skipped = 0;
    long solved = 0;
    for (const BoundSetup &setup : boundSetups()) {
        const double t0 = 0.05 * prof.throughputUpperBound(setup.cluster);
        const std::vector<ModelPlacement> seeds = {
            SwarmPlanner().plan(setup.cluster, prof),
            PetalsPlanner().plan(setup.cluster, prof),
            SeparatePipelinesPlanner(true).plan(setup.cluster, prof),
        };
        const FlowSearch search(setup.cluster, prof, HelixPlannerConfig{});
        Rng rng(0x5c1b);
        for (size_t s = 0; s < seeds.size(); ++s) {
            ModelPlacement current = seeds[s];
            double current_value = search.evaluate(current);
            double incumbent = current_value;
            for (int step = 0; step < kSteps; ++step) {
                const double temperature =
                    t0 *
                    std::pow(1e-3, static_cast<double>(step) / kSteps);
                ModelPlacement candidate = current;
                const int moves =
                    1 + static_cast<int>(rng.nextBounded(3));
                for (int k = 0; k < moves; ++k)
                    search.mutate(candidate, rng);
                const double u = rng.nextDouble();
                const flow::Units bound = search.layerBound(candidate);
                const bool skip =
                    !annealingAccepts(flow::fromUnits(bound),
                                      current_value, temperature, u);
                const double value = search.evaluate(candidate);
                const bool accept = annealingAccepts(
                    value, current_value, temperature, u);
                const auto where = [&] {
                    return std::string(setup.name) + " seed " +
                           std::to_string(s) + " step " +
                           std::to_string(step);
                };
                ASSERT_LE(flow::toUnits(value), bound) << where();
                if (skip) {
                    ++skipped;
                    EXPECT_FALSE(accept) << where();
                    EXPECT_LE(value, incumbent) << where();
                } else {
                    ++solved;
                }
                incumbent = std::max(incumbent, value);
                if (accept) {
                    current = candidate;
                    current_value = value;
                }
            }
        }
    }
    // The chains exercise both branches.
    EXPECT_GT(skipped, 0);
    EXPECT_GT(solved, 0);
}

TEST(FlowSearchTest, ClimbNeverLowersTheLayerBoundAndReportsASolvedFlow)
{
    // Climbs from random placements, sparse to dense: each node holds
    // nothing with probability up to 0.5, else a window within its
    // half-VRAM limit starting anywhere, so layers are often left
    // uncovered. After every step the current state's
    // layer bound must not have fallen, a rejected step must leave the
    // state as it was, and chain.currentBound must be that bound. At
    // the end the chain's best value must be the solved max flow of
    // its best placement, bit for bit, and every step must count as
    // one candidate. HELIX_FUZZ_ITERS scales the climbs.
    constexpr int kSteps = 100;
    const int rounds = std::max(1, fuzzRounds(400) / 5);
    const Profiler prof(model::catalog::llama70b());
    const int layers = prof.modelSpec().numLayers;
    Rng rng(0xc11b);
    long accepted = 0;
    long rejected = 0;
    long improved = 0;
    for (const BoundSetup &setup : boundSetups()) {
        const int n = setup.cluster.numNodes();
        const FlowSearch search(setup.cluster, prof, HelixPlannerConfig{});
        for (int round = 0; round < rounds; ++round) {
            const double empty = 0.5 * rng.nextDouble();
            ModelPlacement start;
            start.nodes.resize(n);
            for (int i = 0; i < n; ++i) {
                if (rng.nextDouble() < empty)
                    continue;
                const int most = std::clamp(
                    prof.maxLayers(setup.cluster.node(i)), 1, layers);
                const int count =
                    1 + static_cast<int>(rng.nextBounded(most));
                start[i] = {static_cast<int>(rng.nextBounded(
                                layers - count + 1)),
                            count};
            }
            const double start_value = search.evaluate(start);
            FlowSearch::Chain chain(search, rng.fork(round), start,
                                    start_value);
            const auto where = [&](int step) {
                return std::string(setup.name) + " round " +
                       std::to_string(round) + " step " +
                       std::to_string(step);
            };
            ASSERT_EQ(chain.currentBound, search.layerBound(start))
                << where(0);
            for (int step = 0; step < kSteps; ++step) {
                const ModelPlacement before = chain.current;
                const flow::Units bound = search.layerBound(before);
                const bool moved = search.climb(chain);
                const flow::Units after =
                    search.layerBound(chain.current);
                ASSERT_GE(after, bound) << where(step);
                ASSERT_EQ(chain.currentBound, after) << where(step);
                if (moved) {
                    ++accepted;
                } else {
                    ++rejected;
                    ASSERT_TRUE(chain.current == before)
                        << where(step);
                }
            }
            EXPECT_EQ(chain.evaluated, kSteps) << where(kSteps);
            EXPECT_LE(chain.solved, chain.evaluated) << where(kSteps);
            ASSERT_TRUE(sameValue(chain.bestValue,
                                  search.evaluate(chain.best)))
                << where(kSteps) << ": " << std::hexfloat
                << chain.bestValue;
            EXPECT_GE(chain.bestValue, start_value) << where(kSteps);
            improved += chain.bestValue > start_value;
        }
    }
    // The climbs take and refuse moves, and find better placements.
    EXPECT_GT(accepted, 0);
    EXPECT_GT(rejected, 0);
    EXPECT_GT(improved, 0);
}

TEST(MilpFormulationTest, ProblemSizeIsLinearInNodesAndEdges)
{
    ClusterSpec c = cluster::setups::plannerCluster10();
    Profiler prof(model::catalog::llama30b());
    MilpFormulation full(c, prof);
    auto filter = ConnectionFilter::pruneByBandwidth(c, 4);
    MilpFormulation pruned(c, prof, &filter);
    EXPECT_LT(pruned.numVariables(), full.numVariables());
    EXPECT_LT(pruned.numConstraints(), full.numConstraints());
    EXPECT_GT(pruned.numVariables(), 0);
}

/** Two placements of a 12-layer model on three nodes: an exact
 *  tiling, and {0,6},{4,6},{8,4}, whose overlapping intervals only
 *  partial inference (s_j <= e_i < e_j) connects. */
std::vector<ModelPlacement>
tilingAndOverlap()
{
    ModelPlacement tiling;
    tiling.nodes = {{0, 4}, {4, 4}, {8, 4}};
    ModelPlacement overlap;
    overlap.nodes = {{0, 6}, {4, 6}, {8, 4}};
    return {tiling, overlap};
}

TEST(MilpFormulationTest, EncodeRoundTripsPlacement)
{
    ClusterSpec c;
    for (int i = 0; i < 3; ++i) {
        NodeSpec node;
        node.name = "t4-" + std::to_string(i);
        node.gpu = cluster::gpus::t4();
        c.addNode(std::move(node));
    }
    c.setUniformLinks(10e9, 1e-3);
    // Tiny 12-layer toy model so a T4 can hold several layers.
    model::TransformerSpec toy = model::catalog::llama30b();
    toy.numLayers = 12;
    Profiler prof(toy);
    MilpFormulation formulation(c, prof);
    // Exact tiling, then an overlap only partial inference connects.
    for (ModelPlacement p : tilingAndOverlap()) {
        auto values = formulation.encodePlacement(p);
        EXPECT_TRUE(formulation.problem().isFeasible(values, 1e-4));
        ModelPlacement round = formulation.extractPlacement(values);
        EXPECT_EQ(round, p);
    }
}

TEST(MilpFormulationTest, EncodedWarmStartHasMaxFlowObjective)
{
    ClusterSpec c;
    for (int i = 0; i < 3; ++i) {
        NodeSpec node;
        node.name = "t4-" + std::to_string(i);
        node.gpu = cluster::gpus::t4();
        c.addNode(std::move(node));
    }
    c.setUniformLinks(10e9, 1e-3);
    model::TransformerSpec toy = model::catalog::llama30b();
    toy.numLayers = 12;
    Profiler prof(toy);
    MilpFormulation formulation(c, prof);
    for (ModelPlacement p : tilingAndOverlap()) {
        auto values = formulation.encodePlacement(p);
        PlacementGraph graph(c, prof, p);
        EXPECT_GT(graph.maxThroughput(), 0.0);
        EXPECT_NEAR(formulation.problem().objectiveValue(values),
                    graph.maxThroughput(), 1e-3);
    }
}

TEST(MilpFormulationTest, ExactSolverMatchesExhaustiveSearch)
{
    // 2-node cluster, 6-layer toy model: brute force every placement
    // and compare with the MILP optimum.
    ClusterSpec c;
    NodeSpec n0{"t4-0", cluster::gpus::t4(), 1, 0};
    NodeSpec n1{"t4-1", cluster::gpus::t4(), 1, 0};
    c.addNode(n0);
    c.addNode(n1);
    c.setUniformLinks(10e9, 1e-3);
    model::TransformerSpec toy = model::catalog::llama30b();
    toy.numLayers = 6;
    Profiler prof(toy);

    double brute_best = 0.0;
    int k0 = prof.maxLayers(c.node(0));
    int k1 = prof.maxLayers(c.node(1));
    for (int c0 = 1; c0 <= std::min(k0, 6); ++c0) {
        for (int s0 = 0; s0 + c0 <= 6; ++s0) {
            for (int c1 = 1; c1 <= std::min(k1, 6); ++c1) {
                for (int s1 = 0; s1 + c1 <= 6; ++s1) {
                    ModelPlacement p;
                    p.nodes = {{s0, c0}, {s1, c1}};
                    brute_best = std::max(
                        brute_best, flowOf(c, prof, p));
                }
            }
        }
    }

    MilpFormulation formulation(c, prof);
    milp::BranchAndBound solver;
    milp::BnbConfig config;
    config.timeLimitSeconds = 60.0;
    milp::MilpResult result =
        solver.solve(formulation.problem(), config);
    ASSERT_TRUE(result.status == milp::MilpStatus::Optimal ||
                result.status == milp::MilpStatus::Feasible);
    EXPECT_NEAR(result.objective, brute_best,
                1e-3 * std::max(1.0, brute_best));
    // And the extracted placement really achieves that flow.
    ModelPlacement extracted = formulation.extractPlacement(
        result.values);
    EXPECT_NEAR(flowOf(c, prof, extracted), brute_best,
                1e-3 * std::max(1.0, brute_best));
}

TEST(HelixPlannerTest, ReportsTheMaxFlowOfItsPlacement)
{
    // The planner optimises and reports one quantity, the max flow of
    // the placement it returns (Sec. 4.3): the portfolio's yardstick
    // must read back exactly what it reports. A zero budget ranks the
    // four warm starts only, so that case is deterministic; the short
    // one also runs the annealer. Hetero42's short budget also runs
    // the climb and merges chains, and four L4s on an 8-layer model
    // are a small cluster, which the planner searches the same way.
    // Without warm starts the search starts from its cold placement.
    struct Input
    {
        const char *name;
        ClusterSpec cluster;
        model::TransformerSpec model;
        double budget;
        bool warm = true;
    };
    const Input inputs[] = {
        {"geo24/llama30b", cluster::setups::geoDistributed24(),
         model::catalog::llama30b(), 0.0},
        {"geo24/llama30b", cluster::setups::geoDistributed24(),
         model::catalog::llama30b(), 0.05},
        {"hetero42/llama70b", cluster::setups::highHeterogeneity42(),
         model::catalog::llama70b(), 0.2},
        {"4xL4/llama30b-8", tinyCluster(std::vector<cluster::GpuSpec>(
                                4, cluster::gpus::l4())),
         toyModel(model::catalog::llama30b(), 8), 0.2},
        {"3xL4/llama30b-12 cold", tinyCluster(std::vector<cluster::GpuSpec>(
                                      3, cluster::gpus::l4())),
         toyModel(model::catalog::llama30b(), 12), 0.0, false},
    };
    for (const Input &input : inputs) {
        const Profiler prof(input.model);
        HelixPlannerConfig config;
        config.timeBudgetSeconds = input.budget;
        config.useWarmStarts = input.warm;
        HelixPlanner planner(config);
        ModelPlacement p = planner.plan(input.cluster, prof);
        const double bound = flowThroughputBound(input.cluster, prof, p);
        EXPECT_GT(bound, 0.0);
        const HelixPlannerReport &report = planner.report();
        EXPECT_TRUE(sameValue(report.bestThroughput, bound))
            << input.name << " budget " << input.budget << ": "
            << std::hexfloat << report.bestThroughput << " vs " << bound;
        // Its progress rises under the upper bound to what it reports.
        EXPECT_GT(report.candidatesEvaluated, 0) << input.name;
        ASSERT_FALSE(report.progress.empty()) << input.name;
        for (const ProgressSample &sample : report.progress) {
            EXPECT_GE(sample.incumbent, 0.0) << input.name;
            EXPECT_LE(sample.incumbent, report.upperBound) << input.name;
        }
        EXPECT_TRUE(sameValue(report.progress.back().incumbent,
                              report.bestThroughput))
            << input.name;
    }
}

/** FNV-1a over every node's window. */
uint64_t
placementHash(const ModelPlacement &placement)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    auto mix = [&](int value) {
        for (int k = 0; k < 4; ++k) {
            hash ^= (static_cast<uint32_t>(value) >> (8 * k)) & 0xff;
            hash *= 0x100000001b3ULL;
        }
    };
    for (const NodePlacement &node : placement.nodes) {
        mix(node.start);
        mix(node.count);
    }
    return hash;
}

/** The planner's warm starts, in its order. */
std::vector<ModelPlacement>
warmStarts(const ClusterSpec &c, const Profiler &prof)
{
    return {SwarmPlanner().plan(c, prof), PetalsPlanner().plan(c, prof),
            SeparatePipelinesPlanner(false).plan(c, prof),
            SeparatePipelinesPlanner(true).plan(c, prof)};
}

TEST(HelixPlannerTest, ZeroBudgetReturnsTheBestWarmStartOnAnyThreadCount)
{
    // With no time to search, the chains take no step and the planner
    // returns its best warm start, the first of equals, as it did
    // before it ran chains: these hashes and flows were recorded from
    // the single-chain planner. FlowSearch::run must return the same
    // on one thread and on four, and name chain 0 the winner.
    struct Pin
    {
        const char *name;
        ClusterSpec cluster;
        model::TransformerSpec model;
        uint64_t hash;
        double flow;
    };
    const Pin pins[] = {
        {"hetero42/llama70b", cluster::setups::highHeterogeneity42(),
         model::catalog::llama70b(), 0x8c18e541ff37a55eULL,
         0x1.c007f3cap+11},
        {"geo24/llama30b", cluster::setups::geoDistributed24(),
         model::catalog::llama30b(), 0x0804e2198262ec55ULL,
         0x1.2ec5c976p+11},
    };
    for (const Pin &pin : pins) {
        const Profiler prof(pin.model);
        HelixPlannerConfig config;
        config.timeBudgetSeconds = 0.0;
        HelixPlanner planner(config);
        const ModelPlacement planned = planner.plan(pin.cluster, prof);
        EXPECT_EQ(placementHash(planned), pin.hash) << pin.name;
        EXPECT_TRUE(sameValue(planner.report().bestThroughput, pin.flow))
            << pin.name << ": " << std::hexfloat
            << planner.report().bestThroughput;
        for (int threads : {1, FlowSearch::kChains}) {
            FlowSearch search(pin.cluster, prof, config);
            HelixPlannerReport report;
            const ModelPlacement found =
                search.run(warmStarts(pin.cluster, prof),
                           prof.throughputUpperBound(pin.cluster), report,
                           threads);
            const auto where = [&] {
                return std::string(pin.name) +
                       " threads=" + std::to_string(threads);
            };
            EXPECT_TRUE(found == planned) << where();
            EXPECT_TRUE(sameValue(report.bestThroughput, pin.flow))
                << where();
            EXPECT_EQ(report.chains, FlowSearch::kChains) << where();
            EXPECT_EQ(report.winningChain, 0) << where();
            EXPECT_EQ(report.candidatesEvaluated, 4) << where();
            EXPECT_EQ(report.candidatesSolved, 4) << where();
        }
    }
}

TEST(HelixPlannerTest, MergedProgressRisesToTheReportedFlow)
{
    // The chains' improvements merge into one progress list: in time
    // order, never falling, ending at the reported flow, which is the
    // returned placement's solved max flow and at least the best warm
    // start's. On one thread the four chains share the time in turn.
    const ClusterSpec c = cluster::setups::highHeterogeneity42();
    const Profiler prof(model::catalog::llama70b());
    const std::vector<ModelPlacement> seeds = warmStarts(c, prof);
    HelixPlannerConfig config;
    config.timeBudgetSeconds = 0.2;
    FlowSearch search(c, prof, config);
    double seed_best = 0.0;
    for (const ModelPlacement &seed : seeds) {
        ModelPlacement clamped = seed;
        for (int i = 0; i < c.numNodes(); ++i) {
            clamped[i].count =
                std::min(clamped[i].count, prof.maxLayers(c.node(i)));
        }
        seed_best = std::max(seed_best, search.evaluate(clamped));
    }
    for (int threads : {1, FlowSearch::kChains}) {
        HelixPlannerReport report;
        const ModelPlacement found = search.run(
            seeds, prof.throughputUpperBound(c), report, threads);
        EXPECT_EQ(report.chains, FlowSearch::kChains);
        EXPECT_GE(report.winningChain, 0);
        EXPECT_LT(report.winningChain, FlowSearch::kChains);
        EXPECT_LE(report.candidatesSolved, report.candidatesEvaluated);
        EXPECT_TRUE(sameValue(report.bestThroughput, search.evaluate(found)))
            << "threads=" << threads;
        EXPECT_GE(report.bestThroughput, seed_best) << "threads=" << threads;
        ASSERT_FALSE(report.progress.empty());
        for (size_t k = 1; k < report.progress.size(); ++k) {
            EXPECT_GE(report.progress[k].seconds,
                      report.progress[k - 1].seconds)
                << "threads=" << threads << " sample " << k;
            EXPECT_GE(report.progress[k].incumbent,
                      report.progress[k - 1].incumbent)
                << "threads=" << threads << " sample " << k;
        }
        EXPECT_TRUE(sameValue(report.progress.back().incumbent,
                              report.bestThroughput))
            << "threads=" << threads;
    }
}

TEST(HelixPlannerTest, WallTimeStaysWithinTheBudget)
{
    // The search's deadline is on the planner's timer, so the warm
    // starts and the search's setup count against the budget, and no
    // chain starts a step it expects to end past the deadline. A step
    // solves at most one candidate: the plan may overrun by at most one
    // evaluate(), measured here as the slowest of three on the returned
    // placement. The budget scales with the build's speed, so the warm
    // starts and the chains' setup take a small share of it.
    cluster::gen::GeneratorConfig gen;
    gen.preset = "geo-distributed";
    gen.numNodes = 1000;
    const std::optional<ClusterSpec> c = cluster::gen::generate(gen);
    ASSERT_TRUE(c.has_value());
    const Profiler prof(model::catalog::llama30b());
    auto slowest = [&](const FlowSearch &search,
                       const ModelPlacement &placement) {
        double seconds = 0.0;
        for (int k = 0; k < 3; ++k) {
            const WallTimer timer;
            static_cast<void>(search.evaluate(placement));
            seconds = std::max(seconds, timer.seconds());
        }
        return seconds;
    };
    HelixPlannerConfig config;
    const ModelPlacement petals = PetalsPlanner().plan(*c, prof);
    config.timeBudgetSeconds =
        std::max(0.5, 50.0 * slowest(FlowSearch(*c, prof, config), petals));
    HelixPlanner planner(config);
    const ModelPlacement planned = planner.plan(*c, prof);
    const double step = slowest(FlowSearch(*c, prof, config), planned);
    EXPECT_LE(planner.report().wallSeconds,
              config.timeBudgetSeconds + step)
        << "budget " << config.timeBudgetSeconds << " s, evaluate " << step
        << " s";
}

TEST(HelixPlannerTest, SearchDeadlineIsOnTheCallersTimer)
{
    // FlowSearch::run ends at the budget on the timer it is given, so
    // what ran before it on that timer (the planner's warm starts, the
    // search's setup) counts against the budget. A timer already past
    // the budget leaves the chains no step: only the seeds are scored.
    const ClusterSpec c = cluster::setups::highHeterogeneity42();
    const Profiler prof(model::catalog::llama70b());
    HelixPlannerConfig config;
    config.timeBudgetSeconds = 0.05;
    FlowSearch search(c, prof, config);
    const std::vector<ModelPlacement> seeds = warmStarts(c, prof);
    const WallTimer timer;
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    for (int threads : {1, FlowSearch::kChains}) {
        HelixPlannerReport report;
        static_cast<void>(search.run(seeds, prof.throughputUpperBound(c),
                                     report, threads, timer));
        EXPECT_EQ(report.candidatesEvaluated,
                  static_cast<long>(seeds.size()))
            << "threads=" << threads;
        EXPECT_GE(report.wallSeconds, config.timeBudgetSeconds)
            << "threads=" << threads;
    }
}

TEST(HelixPlannerTest, ReachesTheProvenOptimumOfATinyCluster)
{
    // One A100, one L4 and one T4 on 1 Gb/s links serving a 6-layer
    // LLaMA-70B: few enough placements to enumerate (every window of
    // every node), and the best warm start is well short of the best
    // placement, so the search must find it. The optimum lies below
    // the planner's early stop (99.5% of the compute bound), so the
    // search cannot end before reaching it.
    const ClusterSpec c = tinyCluster(
        {cluster::gpus::a100_40(), cluster::gpus::l4(), cluster::gpus::t4()},
        1e9);
    const Profiler prof(toyModel(model::catalog::llama70b(), 6));
    const int layers = prof.modelSpec().numLayers;
    double optimum = 0.0;
    ModelPlacement p;
    p.nodes.resize(3);
    std::function<void(int)> enumerate = [&](int node) {
        if (node == c.numNodes()) {
            optimum = std::max(optimum, flowOf(c, prof, p));
            return;
        }
        const int widest = std::min(prof.maxLayers(c.node(node)), layers);
        for (int count = 1; count <= widest; ++count) {
            for (int start = 0; start + count <= layers; ++start) {
                p[node] = {start, count};
                enumerate(node + 1);
            }
        }
    };
    enumerate(0);
    ASSERT_LT(optimum, 0.995 * prof.throughputUpperBound(c));

    HelixPlannerConfig config;
    config.timeBudgetSeconds = 0.0;
    HelixPlanner warm(config);
    const ModelPlacement warm_start = warm.plan(c, prof);
    EXPECT_LT(flowOf(c, prof, warm_start), optimum);

    config.timeBudgetSeconds = 1.0;
    HelixPlanner planner(config);
    const ModelPlacement planned = planner.plan(c, prof);
    EXPECT_TRUE(placementValid(planned, c, prof));
    EXPECT_TRUE(sameValue(flowOf(c, prof, planned), optimum))
        << std::hexfloat << flowOf(c, prof, planned) << " vs " << optimum;
    EXPECT_TRUE(sameValue(planner.report().bestThroughput, optimum));
}

} // namespace
} // namespace placement
} // namespace helix
