/**
 * @file
 * Placement explorer: build a custom heterogeneous cluster, run every
 * planner on it, and compare the resulting placements by max-flow
 * throughput (the objective every Helix engine ranks placements by)
 * and the classic bottleneck-stage metric. On small clusters the exact
 * Tables-5/6 MILP is also solved and its optimum printed.
 *
 * Demonstrates: custom cluster construction, every planner in the
 * library, placement inspection, and the exact MILP path.
 */

#include <cstdio>
#include <vector>

#include "core/helix.h"
#include "placement/milp_formulation.h"

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

    // A 24-layer model keeps the instance exactly solvable.
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
    helix_config.timeBudgetSeconds = 10.0;
    helix_config.exactMilpNodeLimit = 5; // exact MILP on this cluster
    placement::HelixPlanner helix_planner(helix_config);

    std::vector<placement::Planner *> planners{
        &uniform, &swarm, &petals, &sp, &helix_planner};

    std::printf("\n%-10s %14s %14s\n", "planner", "max-flow t/s",
                "bottleneck t/s");
    for (placement::Planner *planner : planners) {
        placement::ModelPlacement placement =
            planner->plan(clus, profiler);
        placement::PlacementGraph graph(clus, profiler, placement);
        double flow = graph.maxThroughput();
        double bottleneck = placement::bottleneckLayerThroughput(
            placement, clus, profiler);
        std::printf("%-10s %14.1f %14.1f\n", planner->name().c_str(),
                    flow, bottleneck);
    }

    std::printf("\nhelix placement in detail (exact MILP: %s):\n%s",
                helix_planner.report().usedExactMilp ? "yes" : "no",
                helix_planner.plan(clus, profiler)
                    .describe(clus)
                    .c_str());

    // Show the raw MILP dimensions for the curious.
    placement::MilpFormulation formulation(clus, profiler);
    std::printf("\nexact MILP size for this instance: %d variables, "
                "%d constraints\n",
                formulation.numVariables(),
                formulation.numConstraints());
    return 0;
}
