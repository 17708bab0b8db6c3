#include "placement/partitioned_planner.h"

#include <algorithm>
#include <map>
#include <numeric>

#include "util/logging.h"
#include "util/timer.h"

namespace helix {
namespace placement {

namespace {

/** PartitionedPlanner's partition size cap. */
constexpr int kMaxPartitionNodes = 16;

/** Sum of half-VRAM layer capacity over @p members. */
int
layerCapacity(const Partition &members,
              const cluster::ClusterSpec &cluster,
              const cluster::Profiler &profiler)
{
    int capacity = 0;
    for (int node : members)
        capacity += profiler.maxLayers(cluster.node(node));
    return capacity;
}

} // namespace

cluster::ClusterSpec
subCluster(const cluster::ClusterSpec &cluster,
           const Partition &members)
{
    constexpr int kNotMember = -2;
    cluster::ClusterSpec sub;
    std::vector<int> position(cluster.numNodes(), kNotMember);
    for (int node : members) {
        position[node] = sub.numNodes();
        sub.addNode(cluster.node(node));
    }
    // Nodes keep their regions, so the class table carries over; only
    // the overrides among members (and the coordinator) come along.
    sub.connectRegions(cluster.intraRegionLink(),
                       cluster.interRegionLink(),
                       cluster.coordinatorRegion());
    auto subIndex = [&](int endpoint) {
        return endpoint == cluster::kCoordinator ? cluster::kCoordinator
                                                 : position[endpoint];
    };
    std::vector<cluster::LinkOverride> overrides;
    for (const cluster::LinkOverride &entry : cluster.linkOverrides()) {
        int from = subIndex(entry.from);
        int to = subIndex(entry.to);
        if (from != kNotMember && to != kNotMember)
            overrides.push_back({from, to, entry.link});
    }
    sub.setLinks(std::move(overrides));
    return sub;
}

std::vector<Partition>
partitionByRegion(const cluster::ClusterSpec &cluster,
                  const cluster::Profiler &profiler,
                  int max_partition_nodes)
{
    HELIX_ASSERT(max_partition_nodes > 0);
    const int num_layers = profiler.modelSpec().numLayers;

    // Group by region first.
    std::map<int, Partition> by_region;
    for (int i = 0; i < cluster.numNodes(); ++i)
        by_region[cluster.node(i).region].push_back(i);

    // Split oversized groups; a split piece must still be able to
    // hold the model, otherwise keep growing it.
    std::vector<Partition> partitions;
    for (auto &[region, members] : by_region) {
        (void)region;
        Partition current;
        for (int node : members) {
            current.push_back(node);
            if (static_cast<int>(current.size()) >=
                    max_partition_nodes &&
                layerCapacity(current, cluster, profiler) >=
                    num_layers) {
                partitions.push_back(std::move(current));
                current.clear();
            }
        }
        if (!current.empty())
            partitions.push_back(std::move(current));
    }

    // Merge partitions that cannot hold the model alone into their
    // successor (wrapping to the previous one at the end).
    std::vector<Partition> merged;
    Partition pending;
    for (auto &partition : partitions) {
        pending.insert(pending.end(), partition.begin(),
                       partition.end());
        if (layerCapacity(pending, cluster, profiler) >= num_layers) {
            merged.push_back(std::move(pending));
            pending.clear();
        }
    }
    if (!pending.empty()) {
        if (merged.empty()) {
            merged.push_back(std::move(pending));
        } else {
            merged.back().insert(merged.back().end(), pending.begin(),
                                 pending.end());
        }
    }
    return merged;
}

ModelPlacement
PartitionedPlanner::plan(const cluster::ClusterSpec &cluster,
                         const cluster::Profiler &profiler)
{
    lastPartitions =
        partitionByRegion(cluster, profiler, kMaxPartitionNodes);
    HELIX_ASSERT(!lastPartitions.empty());

    ModelPlacement placement;
    placement.nodes.assign(cluster.numNodes(), {0, 0});

    // Deadline-driven budget split: each partition gets an equal
    // share of the budget *remaining* when it starts, so fixed
    // per-partition overheads (sub-cluster construction, warm-start
    // heuristics) eat into later shares instead of accumulating on
    // top of the total — with many partitions the static
    // budget/partitions split overran the budget by the summed
    // overheads.
    const WallTimer timer;
    for (size_t p = 0; p < lastPartitions.size(); ++p) {
        const Partition &members = lastPartitions[p];
        double elapsed = timer.seconds();
        HelixPlannerConfig inner_config = cfg;
        inner_config.timeBudgetSeconds =
            std::max(0.0, cfg.timeBudgetSeconds - elapsed) /
            static_cast<double>(lastPartitions.size() - p);
        cluster::ClusterSpec sub = subCluster(cluster, members);
        HelixPlanner inner(inner_config, searchThreads);
        ModelPlacement sub_placement = inner.plan(sub, profiler);
        for (size_t i = 0; i < members.size(); ++i)
            placement[members[i]] = sub_placement[i];
    }
    return placement;
}

} // namespace placement
} // namespace helix
