/**
 * @file
 * Capacity planner: a what-if tool for choosing a GPU fleet. Given a
 * model and several candidate fleets (mixes of GPU types at different
 * price points), it plans a placement for each fleet, simulates
 * offline serving, and reports throughput per dollar — the
 * cost-efficiency argument from the paper's introduction (several L4s
 * can beat one high-end GPU per dollar).
 *
 * Demonstrates: programmatic fleet construction, the end-to-end
 * deploy/run loop, and using the cost model for procurement analysis.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/helix.h"

namespace {

using namespace helix;

struct Fleet
{
    std::string name;
    std::vector<std::pair<cluster::GpuSpec, int>> gpus;
    double priceUsd = 0.0; // midpoint list price estimate
};

cluster::ClusterSpec
buildCluster(const Fleet &fleet)
{
    cluster::ClusterSpec clus;
    for (const auto &[gpu, count] : fleet.gpus) {
        for (int i = 0; i < count; ++i) {
            cluster::NodeSpec node;
            node.name = gpu.name + "-" + std::to_string(i);
            node.gpu = gpu;
            clus.addNode(std::move(node));
        }
    }
    clus.setUniformLinks(10e9, 1e-3);
    return clus;
}

} // namespace

int
main()
{
    using namespace helix;

    model::TransformerSpec model_spec = model::catalog::llama70b();
    std::printf("capacity planning for %s\n\n",
                model_spec.name.c_str());

    // Midpoint list prices from Table 3 of the paper.
    const double price_a100 = 12500.0;
    const double price_l4 = 3000.0;
    const double price_t4 = 1000.0;

    std::vector<Fleet> fleets = {
        {"8xA100",
         {{cluster::gpus::a100_40(), 8}},
         8 * price_a100},
        {"24xL4",
         {{cluster::gpus::l4(), 24}},
         24 * price_l4},
        {"4xA100+16xT4",
         {{cluster::gpus::a100_40(), 4}, {cluster::gpus::t4(), 16}},
         4 * price_a100 + 16 * price_t4},
        {"8xL4+24xT4",
         {{cluster::gpus::l4(), 8}, {cluster::gpus::t4(), 24}},
         8 * price_l4 + 24 * price_t4},
        {"4xT4",
         {{cluster::gpus::t4(), 4}}, // too small: infeasible
         4 * price_t4},
    };

    std::printf("%-14s %10s %12s %14s %16s\n", "fleet", "price $",
                "planned t/s", "measured t/s", "tokens/s per $k");
    for (const Fleet &fleet : fleets) {
        cluster::ClusterSpec clus = buildCluster(fleet);
        placement::HelixPlannerConfig config;
        config.timeBudgetSeconds = 4.0;
        placement::HelixPlanner planner(config);
        Deployment deployment(clus, model_spec, planner);
        if (deployment.plannedThroughput() <= 0.0) {
            std::printf("%-14s %10.0f %12s %14s %16s\n",
                        fleet.name.c_str(), fleet.priceUsd,
                        "infeasible", "-", "-");
            continue;
        }
        RunConfig run;
        run.simulation.warmupSeconds = 30.0;
        run.simulation.measureSeconds = 90.0;
        auto sched = makeScheduler(deployment, SchedulerKind::Helix);
        auto metrics = runExperiment(deployment, *sched, run);
        std::printf("%-14s %10.0f %12.0f %14.1f %16.2f\n",
                    fleet.name.c_str(), fleet.priceUsd,
                    deployment.plannedThroughput(),
                    metrics.decodeThroughput,
                    metrics.decodeThroughput /
                        (fleet.priceUsd / 1000.0));
    }

    std::printf("\nNote: fleets that cannot hold the model at all "
                "report 'infeasible';\nthroughput per dollar is how "
                "the paper motivates heterogeneous serving.\n");
    return 0;
}
