/**
 * @file
 * Reproduces Table 8 and Fig. 11: the MILP-optimization ablations.
 *
 *  - Table 8: MILP problem size (variables / constraints) with and
 *    without cluster pruning for the 24-node (geo) and 42-node
 *    (high-heterogeneity) settings.
 *  - Fig. 11a: serving throughput of the placement found with and
 *    without pruning under the same optimization budget.
 *  - Fig. 11b: wall-clock planning time to reach the final placement
 *    quality with and without heuristic warm starts.
 */

#include <cstdio>

#include "bench_common.h"
#include "placement/milp_formulation.h"

namespace {

using namespace helix;
using namespace helix::bench;

void
tableEight(const cluster::ClusterSpec &clus, const char *name,
           const cluster::Profiler &profiler)
{
    placement::MilpFormulation full(clus, profiler);
    auto filter =
        placement::ConnectionFilter::pruneByBandwidth(clus, 12);
    placement::MilpFormulation pruned(clus, profiler, &filter);
    std::printf("%-10s %8d var %8d cstr   |   %8d var %8d cstr\n",
                name, pruned.numVariables(), pruned.numConstraints(),
                full.numVariables(), full.numConstraints());
}

double
planAndMeasure(const cluster::ClusterSpec &clus,
               const model::TransformerSpec &model_spec,
               bool use_pruning, bool use_warm_starts,
               const Scale &scale, double *time_to_best)
{
    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = scale.plannerBudgetS;
    config.usePruning = use_pruning;
    config.useWarmStarts = use_warm_starts;
    placement::HelixPlanner planner(config);
    Deployment dep(clus, model_spec, planner);
    if (time_to_best) {
        // Time at which the incumbent last improved: the paper's
        // Fig. 11b metric is time to reach the final quality.
        const auto &progress = planner.report().progress;
        *time_to_best =
            progress.empty() ? 0.0 : progress.back().seconds;
    }
    auto sched = makeScheduler(dep, SchedulerKind::Helix);
    auto metrics = runExperiment(dep, *sched, offlineRun(scale));
    return metrics.decodeThroughput;
}

} // namespace

int
main(int argc, char **argv)
{
    Scale scale = Scale::fromArgs(argc, argv);
    model::TransformerSpec model_spec = model::catalog::llama70b();
    cluster::Profiler profiler(model_spec);

    cluster::ClusterSpec geo = cluster::setups::geoDistributed24();
    cluster::ClusterSpec hetero =
        cluster::setups::highHeterogeneity42();

    std::printf("=== Table 8: MILP problem size, with pruning | "
                "without pruning ===\n");
    tableEight(geo, "24-node", profiler);
    tableEight(hetero, "42-node", profiler);
    std::printf("paper reference: 24-node 876/1122 vs 1376/1848; "
                "42-node 2144/2772 vs 4004/5502\n");

    std::printf("\n=== Fig. 11a: decode throughput with/without "
                "cluster pruning ===\n");
    std::printf("%-10s %14s %14s\n", "setting", "pruned t/s",
                "unpruned t/s");
    for (auto *entry : {&geo, &hetero}) {
        const char *name = entry == &geo ? "24-node" : "42-node";
        double pruned = planAndMeasure(*entry, model_spec, true, true,
                                       scale, nullptr);
        double unpruned = planAndMeasure(*entry, model_spec, false,
                                         true, scale, nullptr);
        std::printf("%-10s %14.1f %14.1f\n", name, pruned, unpruned);
    }
    std::printf("paper reference: pruning gives +16%% (24-node) and "
                "+2%% (42-node) under equal budget\n");

    std::printf("\n=== Fig. 11b: planning time with/without heuristic "
                "warm starts ===\n");
    std::printf("%-10s %16s %16s %16s %16s\n", "setting", "warm t/s",
                "warm best@ (s)", "cold t/s", "cold best@ (s)");
    for (auto *entry : {&geo, &hetero}) {
        const char *name = entry == &geo ? "24-node" : "42-node";
        double warm_seconds = 0.0;
        double cold_seconds = 0.0;
        double warm = planAndMeasure(*entry, model_spec, true, true,
                                     scale, &warm_seconds);
        double cold = planAndMeasure(*entry, model_spec, true, false,
                                     scale, &cold_seconds);
        std::printf("%-10s %16.1f %16.2f %16.1f %16.2f\n", name, warm,
                    warm_seconds, cold, cold_seconds);
    }
    std::printf("paper reference: warm starts cut planning time by "
                "43%% (24-node) and 8%% (42-node)\n");
    return 0;
}
