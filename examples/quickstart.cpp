/**
 * @file
 * Quickstart: plan and serve LLaMA 70B on the paper's 24-node
 * heterogeneous single cluster, comparing the Helix planner+scheduler
 * against the Swarm baseline.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/helix.h"

int
main()
{
    using namespace helix;

    // 1. Describe the hardware: 4 A100 + 8 L4 + 12 T4, 10 Gb/s.
    cluster::ClusterSpec cluster = cluster::setups::singleCluster24();
    std::printf("cluster: %s\n", cluster.summary().c_str());

    // 2. Pick a model.
    model::TransformerSpec model = model::catalog::llama70b();
    std::printf("model:   %s (%d layers, %.1fB params)\n\n",
                model.name.c_str(), model.numLayers,
                static_cast<double>(model.totalParams()) / 1e9);

    // 3. Plan the model placement with Helix's max-flow planner.
    placement::HelixPlannerConfig planner_config;
    planner_config.timeBudgetSeconds = 5.0;
    placement::HelixPlanner planner(planner_config);
    Deployment deployment(cluster, model, planner);

    std::printf("helix placement (planned %.0f tokens/s, bound %.0f):\n%s\n",
                deployment.plannedThroughput(),
                planner.report().upperBound,
                deployment.placement().describe(cluster).c_str());

    // 4. Serve a synthetic Azure-Conversation workload, offline mode.
    RunConfig run;
    run.simulation.warmupSeconds = 30.0;
    run.simulation.measureSeconds = 120.0;

    auto helix_sched = makeScheduler(deployment, SchedulerKind::Helix);
    sim::SimMetrics helix_metrics =
        runExperiment(deployment, *helix_sched, run);

    // 5. Compare against the Swarm baseline (its own placement and
    //    its throughput-proportional scheduler).
    placement::SwarmPlanner swarm_planner;
    Deployment swarm_deploy(cluster, model, swarm_planner);
    auto swarm_sched = makeScheduler(swarm_deploy, SchedulerKind::Swarm);
    sim::SimMetrics swarm_metrics =
        runExperiment(swarm_deploy, *swarm_sched, run);

    std::printf("%-8s %16s %16s %16s\n", "system", "decode tok/s",
                "prompt lat (s)", "decode lat (s)");
    std::printf("%-8s %16.1f %16.2f %16.3f\n", "helix",
                helix_metrics.decodeThroughput,
                helix_metrics.promptLatency.mean(),
                helix_metrics.decodeLatency.mean());
    std::printf("%-8s %16.1f %16.2f %16.3f\n", "swarm",
                swarm_metrics.decodeThroughput,
                swarm_metrics.promptLatency.mean(),
                swarm_metrics.decodeLatency.mean());
    std::printf("\nhelix/swarm throughput ratio: %.2fx\n",
                helix_metrics.decodeThroughput /
                    swarm_metrics.decodeThroughput);
    return 0;
}
