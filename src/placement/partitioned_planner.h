/**
 * @file
 * Partitioned planning: the paper's suggested path to hundreds or
 * thousands of nodes (Sec. 4.5) — "first partition the nodes into
 * multiple smaller clusters using heuristics and then apply Helix
 * independently".
 *
 * The partitioner groups nodes (by region by default, splitting large
 * groups to respect a size cap while keeping each partition able to
 * hold the whole model), plans each partition with an inner planner,
 * and merges the per-partition placements into one placement for the
 * full cluster. Requests then flow through per-partition pipelines;
 * the merged placement is directly usable by the scheduler and
 * simulator.
 */

#ifndef HELIX_PLACEMENT_PARTITIONED_PLANNER_H
#define HELIX_PLACEMENT_PARTITIONED_PLANNER_H

#include <functional>
#include <vector>

#include "placement/helix_planner.h"
#include "placement/planners.h"

namespace helix {
namespace placement {

/** A partition: indices of the member nodes in the parent cluster. */
using Partition = std::vector<int>;

/**
 * Partition a cluster for independent planning. Nodes are grouped by
 * region; groups larger than @p max_partition_nodes are split. Groups
 * whose aggregate half-VRAM capacity cannot hold the model are merged
 * with the next group (a partition that cannot serve the model alone
 * is useless).
 *
 * @return partitions covering every node exactly once.
 */
std::vector<Partition> partitionByRegion(
    const cluster::ClusterSpec &cluster,
    const cluster::Profiler &profiler, int max_partition_nodes);

/**
 * The cluster restricted to @p members, member k becoming node k:
 * node hardware and regions, the link-class table and coordinator
 * region, and the link overrides among members and the coordinator,
 * so every kept pair has its link from @p cluster.
 */
[[nodiscard]] cluster::ClusterSpec subCluster(
    const cluster::ClusterSpec &cluster, const Partition &members);

/**
 * Plans each partition of partitionByRegion (capped at 16 nodes)
 * independently with a Helix planner and merges the results. Scales
 * planning to clusters far beyond what a single MILP / search
 * instance handles, at the cost of forbidding cross-partition
 * pipelines.
 */
class PartitionedPlanner : public Planner
{
  public:
    /**
     * @param config inner Helix planner configuration (the time
     *               budget is split across partitions)
     * @param threads each inner planner's flow-search threads (0 =
     *                the host's cores)
     */
    explicit PartitionedPlanner(HelixPlannerConfig config = {},
                                int threads = 0)
        : cfg(config), searchThreads(threads)
    {
    }

    std::string name() const override { return "helix-partitioned"; }

    ModelPlacement plan(const cluster::ClusterSpec &cluster,
                        const cluster::Profiler &profiler) override;

    /** Partitions used by the last plan() call. */
    const std::vector<Partition> &partitions() const
    {
        return lastPartitions;
    }

  private:
    HelixPlannerConfig cfg;
    int searchThreads;
    std::vector<Partition> lastPartitions;
};

} // namespace placement
} // namespace helix

#endif // HELIX_PLACEMENT_PARTITIONED_PLANNER_H
