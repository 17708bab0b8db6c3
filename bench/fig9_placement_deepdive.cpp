/**
 * @file
 * Reproduces Fig. 9: the model-placement deep dive. All methods use
 * Helix's request scheduler so placement quality is isolated; Helix's
 * planned placement is compared with the Swarm and Petals heuristics on
 * the single cluster and the geo-distributed clusters (offline, LLaMA
 * 70B), and the per-node layer counts of each placement are printed
 * as in the Fig. 9b case study.
 *
 * Paper reference points: Helix's placement achieves 1.23x (Petals)
 * and 2.10x (Swarm) on the single cluster; 1.49x and 2.38x on the
 * geo-distributed clusters.
 */

#include <map>
#include <vector>

#include "bench_common.h"

namespace {

using namespace helix;
using namespace helix::bench;

void
printCaseStudy(const cluster::ClusterSpec &clus,
               const placement::ModelPlacement &placement,
               const char *name)
{
    std::printf("%s placement (layers per node, grouped by GPU "
                "type):\n", name);
    std::map<std::string, std::vector<int>> by_type;
    for (int i = 0; i < clus.numNodes(); ++i) {
        std::string key = clus.node(i).gpu.name;
        if (clus.node(i).numGpus > 1)
            key = std::to_string(clus.node(i).numGpus) + "x" + key;
        by_type[key].push_back(placement[i].count);
    }
    for (const auto &[type, counts] : by_type) {
        std::printf("  %-8s:", type.c_str());
        for (int count : counts)
            std::printf(" %d", count);
        std::printf("\n");
    }
}

void
runSetting(const cluster::ClusterSpec &clus, const char *setting,
           const Scale &scale)
{
    model::TransformerSpec model_spec = model::catalog::llama70b();

    placement::HelixPlannerConfig planner_config;
    planner_config.timeBudgetSeconds = scale.plannerBudgetS;
    placement::HelixPlanner helix_planner(planner_config);
    placement::SwarmPlanner swarm_planner;
    placement::PetalsPlanner petals_planner;

    struct Method
    {
        const char *name;
        placement::Planner *planner;
    };
    Method methods[] = {
        {"helix", &helix_planner},
        {"petals", &petals_planner},
        {"swarm", &swarm_planner},
    };

    std::vector<SystemResult> rows;
    std::string title = std::string("Fig. 9a - placement deep dive, ") +
                        setting + " (Helix scheduler everywhere)";
    for (const Method &method : methods) {
        Deployment dep(clus, model_spec, *method.planner);
        // Isolate placement quality: every method is served by the
        // Helix scheduler.
        auto sched = makeScheduler(dep, SchedulerKind::Helix);
        SystemResult row;
        row.system = method.name;
        row.plannedThroughput = dep.plannedThroughput();
        row.metrics = runExperiment(dep, *sched, offlineRun(scale));
        rows.push_back(std::move(row));
        printCaseStudy(clus, dep.placement(), method.name);
    }
    printHeader(title.c_str());
    for (const auto &row : rows)
        printRow(row);
    printRatios(rows);
}

} // namespace

int
main(int argc, char **argv)
{
    Scale scale = Scale::fromArgs(argc, argv);
    runSetting(cluster::setups::singleCluster24(), "single cluster",
               scale);
    runSetting(cluster::setups::geoDistributed24(), "geo-distributed",
               scale);
    std::printf("\npaper reference: helix/petals 1.23x single, 1.49x "
                "geo; helix/swarm 2.10x single, 2.38x geo\n");
    return 0;
}
