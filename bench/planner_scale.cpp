/**
 * @file
 * Planner scalability: every registry planner on synthetic clusters
 * far beyond the paper's 10-42-node setups.
 *
 * For each cluster size the harness generates a
 * long-tail-heterogeneous cluster (cluster::gen), runs every registry
 * planner under the tier's wall-clock budget, one after another, and
 * prints each planner's wall time, the max flow of its placement
 * (the paper's Sec. 4.3 objective) and feasibility, then which
 * planner planned highest.
 *
 * At the full tier (sizes 100/300/1000; the --smoke tier only prints
 * — its 50 ms budget is smaller than fixed setup overheads) each
 * budgeted planner (helix, helix-partitioned) must finish within the
 * budget plus 5% slack, even at 1000 nodes. Exit code 1 if one does
 * not.
 */

#include "bench_common.h"
#include "cluster/generator.h"
#include "exp/experiment.h"
#include "placement/placement_graph.h"
#include "util/logging.h"
#include "util/timer.h"

namespace {

using namespace helix;

/** Every registry planner at @p num_nodes; false on a violation. */
bool
planAtSize(int num_nodes, double budget_s, bool enforce)
{
    cluster::gen::GeneratorConfig config;
    config.preset = "long-tail-heterogeneous";
    config.numNodes = num_nodes;
    config.seed = 7;
    auto clus = cluster::gen::generate(config);
    HELIX_ASSERT(clus.has_value());
    auto model_spec = exp::modelByName("llama30b");
    HELIX_ASSERT(model_spec.has_value());
    cluster::Profiler profiler(*model_spec);

    std::printf("\n=== registry planners on %s (%d nodes, budget %.2f s) "
                "===\n",
                config.preset.c_str(), num_nodes, budget_s);
    std::printf("%-18s %10s %14s %9s\n", "planner", "wall s",
                "max flow", "feasible");
    bool ok = true;
    const double limit = budget_s * 1.05;
    std::string best_name;
    double best_flow = -1.0;
    for (const std::string &name : exp::plannerNames()) {
        auto planner = exp::plannerByName(name, budget_s);
        HELIX_ASSERT(planner != nullptr);
        const WallTimer timer;
        const placement::ModelPlacement placement =
            planner->plan(*clus, profiler);
        const double wall = timer.seconds();
        const bool feasible =
            placement::placementValid(placement, *clus, profiler);
        const double flow =
            placement::PlacementGraph(*clus, profiler, placement)
                .maxThroughput();
        std::printf("%-18s %10.3f %14.1f %9s\n", name.c_str(), wall,
                    flow, feasible ? "yes" : "no");
        if (flow > best_flow) {
            best_flow = flow;
            best_name = name;
        }
        const bool budgeted =
            name == "helix" || name == "helix-partitioned";
        if (enforce && budgeted && wall > limit) {
            std::printf("FAIL: %s wall %.3f s exceeds budget %.2f s + "
                        "5%% (%.3f s)\n",
                        name.c_str(), wall, budget_s, limit);
            ok = false;
        }
    }
    std::printf("highest: %s (%.1f tok/s)\n", best_name.c_str(),
                best_flow);
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Scale scale = bench::Scale::fromArgs(argc, argv);
    std::vector<int> sizes = scale.smoke
                                 ? std::vector<int>{40}
                                 : std::vector<int>{100, 300, 1000};
    bool ok = true;
    for (int size : sizes)
        ok = planAtSize(size, scale.plannerBudgetS, !scale.smoke) && ok;
    return ok ? 0 : 1;
}
