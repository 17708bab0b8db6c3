/**
 * @file
 * Placement explorer: build a custom heterogeneous cluster, run every
 * planner on it, and compare the resulting placements by max-flow
 * throughput (the objective the Helix planner ranks placements by)
 * and the classic bottleneck-stage metric. The exact Tables-5/6 MILP
 * is then solved by the oracle branch-and-bound from the same warm
 * starts and printed next to the Helix planner's flow search.
 *
 * Demonstrates: custom cluster construction, every planner in the
 * library, placement inspection, and the oracle MILP.
 */

#include <cstdio>
#include <utility>
#include <vector>

#include "core/helix.h"
#include "oracle/milp_formulation.h"

int
main()
{
    using namespace helix;

    // A deliberately lopsided cluster: one strong GPU, a few weak
    // ones — the Fig. 1 motivating scenario.
    cluster::ClusterSpec clus;
    clus.addNode({"A100", cluster::gpus::a100_40(), 1, 0});
    clus.addNode({"L4", cluster::gpus::l4(), 1, 1});
    clus.addNode({"T4-0", cluster::gpus::t4(), 1, 1});
    clus.addNode({"T4-1", cluster::gpus::t4(), 1, 1});
    clus.addNode({"T4-2", cluster::gpus::t4(), 1, 1});
    // Region 0 <-> region 1 is a slow 200 Mb/s WAN link.
    clus.connectRegions({10e9, 1e-3}, {200e6, 25e-3}, 0);

    // A 24-layer model keeps the MILP small.
    model::TransformerSpec model_spec = model::catalog::llama30b();
    model_spec.name = "LLaMA-30B-24L";
    model_spec.numLayers = 24;
    cluster::Profiler profiler(model_spec);

    std::printf("cluster: %s; model: %s (%d layers)\n\n",
                clus.summary().c_str(), model_spec.name.c_str(),
                model_spec.numLayers);
    std::printf("per-node VRAM limits (half-VRAM rule / hard):\n");
    for (int i = 0; i < clus.numNodes(); ++i) {
        std::printf("  %-6s %2d / %2d layers\n",
                    clus.node(i).name.c_str(),
                    profiler.maxLayers(clus.node(i)),
                    profiler.hardMaxLayers(clus.node(i)));
    }

    placement::UniformPlanner uniform;
    placement::SwarmPlanner swarm;
    placement::PetalsPlanner petals;
    placement::SeparatePipelinesPlanner sp(false);
    placement::HelixPlannerConfig helix_config;
    helix_config.timeBudgetSeconds = 5.0;
    placement::HelixPlanner helix_planner(helix_config);

    std::vector<placement::Planner *> planners{
        &uniform, &swarm, &petals, &sp, &helix_planner};

    std::printf("\n%-10s %14s %14s\n", "planner", "max-flow t/s",
                "bottleneck t/s");
    std::vector<placement::ModelPlacement> placements;
    for (placement::Planner *planner : planners) {
        placement::ModelPlacement placement =
            planner->plan(clus, profiler);
        placement::PlacementGraph graph(clus, profiler, placement);
        double flow = graph.maxThroughput();
        double bottleneck = placement::bottleneckLayerThroughput(
            placement, clus, profiler);
        std::printf("%-10s %14.1f %14.1f\n", planner->name().c_str(),
                    flow, bottleneck);
        placements.push_back(std::move(placement));
    }
    const double helix_flow = helix_planner.report().bestThroughput;
    std::printf("\nhelix placement in detail (flow search):\n%s",
                placements.back().describe(clus).c_str());

    // The exact MILP, solved by the oracle branch-and-bound from
    // heuristic warm starts, as the paper solves it.
    placement::MilpFormulation formulation(clus, profiler);
    milp::BnbConfig bnb;
    bnb.timeLimitSeconds = 5.0;
    bnb.objectiveUpperBound = profiler.throughputUpperBound(clus);
    for (size_t i = 1; i + 1 < placements.size(); ++i) // Swarm, Petals, SP
        bnb.warmStarts.push_back(formulation.encodePlacement(placements[i]));
    const milp::MilpResult exact =
        milp::BranchAndBound().solve(formulation.problem(), bnb);
    std::printf("\n%-12s %14s %14s\n", "engine", "max-flow t/s",
                "bound t/s");
    std::printf("%-12s %14.1f %14.1f\n", "flow search", helix_flow,
                helix_planner.report().upperBound);
    std::printf("%-12s %14.1f %14.1f   (%s after %ld nodes; %d "
                "variables, %d constraints)\n",
                "oracle MILP", exact.objective, exact.bound,
                milp::toString(exact.status), exact.nodesExplored,
                formulation.numVariables(), formulation.numConstraints());
    return 0;
}
