#include "scheduler/topology_manager.h"

#include "util/compare.h"
#include "util/logging.h"

namespace helix {
namespace scheduler {

TopologyManager::TopologyManager(
    const cluster::ClusterSpec &cluster,
    const cluster::Profiler &profiler,
    const placement::ModelPlacement &placement,
    placement::GraphBuildOptions options, ResolveMode resolve_mode)
    : clusterRef(cluster), profilerRef(profiler),
      placementRef(placement), opts(options), mode(resolve_mode),
      alive(placement.size(), true),
      capOverride(placement.size(), -1.0),
      planned(placement.size(), 0.0)
{
    if (mode == ResolveMode::Repair) {
        // One persistent flow network over the full placement; every
        // later event is a compute-edge capacity update on it. The
        // initial build is a cold solve.
        liveGraph = std::make_unique<placement::PlacementGraph>(
            clusterRef, profilerRef, placementRef, opts);
        (void)liveGraph->maxThroughput(); // prime the cached solve
        ++solves;
        publish(placementRef, *liveGraph);
    } else {
        resolve();
    }
}

bool
TopologyManager::nodeAlive(int node) const
{
    HELIX_ASSERT(node >= 0 &&
                 node < static_cast<int>(alive.size()));
    return alive[node];
}

double
TopologyManager::effectiveCapacity(int node) const
{
    if (!alive[node] || placementRef[node].count == 0)
        return 0.0;
    if (capOverride[node] >= 0.0)
        return capOverride[node];
    return profilerRef.decodeThroughput(clusterRef.node(node),
                                        placementRef[node].count);
}

double
TopologyManager::plannedNodeFlow(int node) const
{
    HELIX_ASSERT(node >= 0 &&
                 node < static_cast<int>(planned.size()));
    return planned[node];
}

double
TopologyManager::setNodeAlive(int node, bool is_alive)
{
    HELIX_ASSERT(node >= 0 &&
                 node < static_cast<int>(alive.size()));
    if (alive[node] == is_alive)
        return currentFlow();
    alive[node] = is_alive;
    // A recovered node serves at its profiled speed again; drift will
    // re-shrink it if its observed throughput still lags.
    if (is_alive)
        capOverride[node] = -1.0;
    resolve();
    return currentFlow();
}

double
TopologyManager::setNodeCapacity(int node, double tokens_per_s)
{
    HELIX_ASSERT(node >= 0 &&
                 node < static_cast<int>(alive.size()));
    if (!alive[node] || placementRef[node].count == 0)
        return currentFlow();
    double next = tokens_per_s < 0.0 ? -1.0 : tokens_per_s;
    // Idempotence short-circuit: only an identical override skips the
    // re-solve.
    if (sameValue(capOverride[node], next))
        return currentFlow();
    capOverride[node] = next;
    resolve();
    return currentFlow();
}

void
TopologyManager::resolve()
{
    if (mode == ResolveMode::Repair) {
        // The persistent graph keeps every node; liveness and drift
        // are capacity updates on the node's compute edge (zero
        // capacity severs exactly the flow through the node), then a
        // warm-start repair restores a maximum flow.
        setCapacities(*liveGraph);
        (void)liveGraph->repairFlow(); // value read via nodeFlow below
        publish(placementRef, *liveGraph);
        return;
    }
    // Cold: restrict the placement to live nodes. A dead node's
    // interval is zeroed, which removes its vertices and every
    // incident edge from the rebuilt placement graph (PlacementGraph
    // skips count == 0 nodes).
    placement::ModelPlacement masked = placementRef;
    for (size_t i = 0; i < masked.size(); ++i) {
        if (!alive[i])
            masked[i] = placement::NodePlacement{0, 0};
    }
    // Drift overrides are then capacity edits on the zero-flow
    // network, which store the units addEdge would have.
    placement::PlacementGraph graph(clusterRef, profilerRef, masked,
                                    opts);
    setCapacities(graph);
    (void)graph.maxThroughput(); // prime flows before Topology copies
    publish(masked, graph);
    ++solves;
}

void
TopologyManager::setCapacities(placement::PlacementGraph &graph) const
{
    for (size_t i = 0; i < alive.size(); ++i) {
        int node = static_cast<int>(i);
        const flow::ArcId e = graph.computeEdge(node);
        if (e == flow::kInvalidArc)
            continue;
        double want = effectiveCapacity(node);
        // No-op filter on the capacity the network would store: an
        // edge whose rounded capacity is unchanged is skipped.
        if (graph.graph().originalUnits(e) != flow::toUnits(want))
            graph.setComputeCapacity(node, want);
    }
}

void
TopologyManager::publish(const placement::ModelPlacement &placement,
                         placement::PlacementGraph &graph)
{
    // Topology copies the placements and edge flows it needs and
    // shares the graph's connection table, so a local graph and masked
    // placement may go out of scope. Schedulers keep only the flows of
    // current() (onTopologyChange), so the replaced topology can be
    // released immediately.
    topo = std::make_unique<Topology>(clusterRef, profilerRef,
                                      placement, graph);
    for (size_t i = 0; i < planned.size(); ++i)
        planned[i] = graph.nodeFlow(static_cast<int>(i));
}

} // namespace scheduler
} // namespace helix
