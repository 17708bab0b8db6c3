/**
 * @file
 * Tests for the model-placement planners: baseline heuristics produce
 * valid placements with the structural properties the paper describes,
 * the exact MILP formulation round-trips placements and matches brute
 * force on tiny clusters, and the Helix planner dominates the
 * heuristics in max-flow terms.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ios>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/profiler.h"
#include "milp/branch_and_bound.h"
#include "model/transformer.h"
#include "placement/helix_planner.h"
#include "placement/milp_formulation.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "placement/portfolio.h"
#include "util/compare.h"

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
}

TEST(FlowSearchTest, EvaluateIsPinnedBitForBit)
{
    // FlowSearch::evaluate is the planner's objective: one placement
    // graph and its max flow. These values pin it exactly on the
    // heuristic placements of two paper clusters, with pruning off
    // and on. On hetero42 the pruned graph disconnects the Swarm and
    // Petals placements, so those rows pin an exact 0.
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
        for (const auto &[planner, placement] : placements) {
            for (bool pruning : {false, true}) {
                HelixPlannerConfig config;
                config.usePruning = pruning;
                FlowSearch search(setup.cluster, prof, config);
                const double got = search.evaluate(placement);
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

TEST(MilpFormulationTest, ProblemSizeIsLinearInNodesAndEdges)
{
    ClusterSpec c = cluster::setups::plannerCluster10();
    Profiler prof(model::catalog::llama30b());
    MilpFormulation full(c, prof);
    auto filter = ConnectionFilter::pruneByBandwidth(c, 4);
    GraphBuildOptions opts;
    opts.filter = &filter;
    MilpFormulation pruned(c, prof, opts);
    EXPECT_LT(pruned.numVariables(), full.numVariables());
    EXPECT_LT(pruned.numConstraints(), full.numConstraints());
    EXPECT_GT(pruned.numVariables(), 0);
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
    ModelPlacement p;
    p.nodes = {{0, 4}, {4, 4}, {8, 4}};
    auto values = formulation.encodePlacement(p);
    EXPECT_TRUE(formulation.problem().isFeasible(values, 1e-4));
    ModelPlacement round = formulation.extractPlacement(values);
    EXPECT_EQ(round, p);
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
    ModelPlacement p;
    p.nodes = {{0, 4}, {4, 4}, {8, 4}};
    auto values = formulation.encodePlacement(p);
    PlacementGraph graph(c, prof, p);
    EXPECT_NEAR(formulation.problem().objectiveValue(values),
                graph.maxThroughput(), 1e-3);
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

TEST(HelixPlannerTest, ExactMilpPathOnTinyCluster)
{
    ClusterSpec c;
    for (int i = 0; i < 2; ++i) {
        NodeSpec node;
        node.name = "l4-" + std::to_string(i);
        node.gpu = cluster::gpus::l4();
        c.addNode(std::move(node));
    }
    c.setUniformLinks(10e9, 1e-3);
    model::TransformerSpec toy = model::catalog::llama30b();
    toy.numLayers = 8;
    Profiler prof(toy);
    HelixPlannerConfig config;
    config.timeBudgetSeconds = 30.0;
    config.exactMilpNodeLimit = 4;
    HelixPlanner planner(config);
    ModelPlacement p = planner.plan(c, prof);
    EXPECT_TRUE(planner.report().usedExactMilp);
    EXPECT_TRUE(placementValid(p, c, prof));
    EXPECT_GT(flowOf(c, prof, p), 0.0);
}

TEST(HelixPlannerTest, ReportsTheMaxFlowOfItsPlacement)
{
    // The planner optimises and reports one quantity, the max flow of
    // the placement it returns (Sec. 4.3), whichever engine ran: the
    // portfolio's yardstick must read back exactly what it reports.
    // A zero budget ranks the four warm starts only, so that case is
    // deterministic; the short one also runs the annealer.
    ClusterSpec geo = cluster::setups::geoDistributed24();
    Profiler geo_prof(model::catalog::llama30b());
    for (double budget : {0.0, 0.05}) {
        HelixPlannerConfig config;
        config.timeBudgetSeconds = budget;
        config.exactMilpNodeLimit = 0;
        HelixPlanner planner(config);
        ModelPlacement p = planner.plan(geo, geo_prof);
        ASSERT_FALSE(planner.report().usedExactMilp);
        const double bound = flowThroughputBound(geo, geo_prof, p);
        EXPECT_GT(bound, 0.0);
        EXPECT_TRUE(sameValue(planner.report().bestThroughput, bound))
            << "budget " << budget << ": " << std::hexfloat
            << planner.report().bestThroughput << " vs " << bound;
    }
    {
        ClusterSpec c;
        for (int i = 0; i < 4; ++i) {
            NodeSpec node;
            node.name = "l4-" + std::to_string(i);
            node.gpu = cluster::gpus::l4();
            c.addNode(std::move(node));
        }
        c.setUniformLinks(10e9, 1e-3);
        model::TransformerSpec toy = model::catalog::llama30b();
        toy.numLayers = 8;
        Profiler prof(toy);
        HelixPlannerConfig config;
        config.timeBudgetSeconds = 30.0;
        config.exactMilpNodeLimit = 4;
        HelixPlanner planner(config);
        ModelPlacement p = planner.plan(c, prof);
        ASSERT_TRUE(planner.report().usedExactMilp);
        const double bound = flowThroughputBound(c, prof, p);
        EXPECT_GT(bound, 0.0);
        EXPECT_NEAR(planner.report().bestThroughput, bound, 1e-6 * bound);
    }
}

} // namespace
} // namespace placement
} // namespace helix
