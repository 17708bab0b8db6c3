#include "placement/portfolio.h"

#include <algorithm>

#include "placement/placement_graph.h"
#include "util/logging.h"
#include "util/tasks.h"
#include "util/timer.h"

namespace helix {
namespace placement {

namespace {

/** Fraction of each member's budget reserved for scoring. */
constexpr double kScoreReserveFraction = 0.1;

} // namespace

double
flowThroughputBound(const cluster::ClusterSpec &cluster,
                    const cluster::Profiler &profiler,
                    const ModelPlacement &placement)
{
    if (static_cast<int>(placement.size()) != cluster.numNodes())
        return 0.0;
    PlacementGraph graph(cluster, profiler, placement);
    return graph.maxThroughput();
}

PortfolioPlanner::PortfolioPlanner(std::vector<PortfolioMember> members_,
                                   PortfolioConfig config,
                                   int threads_)
    : members(std::move(members_)), cfg(config), threads(threads_)
{
}

ModelPlacement
PortfolioPlanner::plan(const cluster::ClusterSpec &cluster,
                       const cluster::Profiler &profiler)
{
    const WallTimer timer;
    lastReport = PortfolioReport{};
    lastReport.budgetS = cfg.budgetS;
    lastReport.entries.resize(members.size());

    // One task per member; each task owns exactly its entry slot, so
    // the tasks may run in any order on any threads.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(members.size());
    for (size_t i = 0; i < members.size(); ++i) {
        tasks.push_back([this, i, timer, &cluster, &profiler]() {
            const WallTimer member_timer;
            PortfolioEntry &entry = lastReport.entries[i];
            entry.planner = members[i].name;
            double remaining =
                std::max(0.0, cfg.budgetS - timer.seconds());
            double search_budget =
                remaining * (1.0 - kScoreReserveFraction);
            std::unique_ptr<Planner> planner =
                members[i].make(search_budget);
            if (!planner) {
                entry.wallSeconds = member_timer.seconds();
                return;
            }
            entry.placement = planner->plan(cluster, profiler);
            entry.feasible =
                placementValid(entry.placement, cluster, profiler);
            entry.flowBound =
                flowThroughputBound(cluster, profiler, entry.placement);
            entry.wallSeconds = member_timer.seconds();
        });
    }
    runTasks(tasks, threads > 0 ? threads
                                : static_cast<int>(tasks.size()));

    // Deterministic argmax: feasible beats infeasible, then strictly
    // higher flow bound; ties go to the earliest member. Independent
    // of the order the tasks actually ran in.
    int best = -1;
    for (size_t i = 0; i < lastReport.entries.size(); ++i) {
        const PortfolioEntry &entry = lastReport.entries[i];
        if (best < 0) {
            best = static_cast<int>(i);
            continue;
        }
        const PortfolioEntry &incumbent = lastReport.entries[best];
        if ((entry.feasible && !incumbent.feasible) ||
            (entry.feasible == incumbent.feasible &&
             entry.flowBound > incumbent.flowBound)) {
            best = static_cast<int>(i);
        }
    }
    lastReport.bestIndex = best;
    lastReport.wallSeconds = timer.seconds();
    if (best < 0)
        return ModelPlacement{};
    return lastReport.entries[best].placement;
}

} // namespace placement
} // namespace helix
