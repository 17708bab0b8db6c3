/**
 * @file
 * Live topology maintenance under node churn (Sec. 5 semantics).
 *
 * The paper's scheduler routes every request along the *current*
 * max-flow of the cluster. When a node fails (or a failed node
 * rejoins), the flow solution of the original placement graph is
 * stale: surviving nodes must not keep their pre-failure flow
 * proportions, and the reported serving bound must reflect the
 * surviving subgraph. TopologyManager owns that invariant: it tracks
 * per-node liveness and per-node capacity overrides, and on every
 * change re-solves max-flow on the live placement graph, producing a
 * fresh Topology whose edge flows become the schedulers' IWRR weights
 * (RequestScheduler::onTopologyChange hands them over). A re-solve
 * publishes flows only: schedulers learn liveness from
 * SchedulerContext::nodeAlive, and read layer ranges and KV
 * capacities from the topology they were built with.
 *
 * Two re-solve strategies exist (ResolveMode):
 *
 * - Repair (the default, and the simulator's only runtime path): keep
 *   one persistent flow network over the full placement where every
 *   liveness/capacity event is a single compute-edge capacity update
 *   (a dead node's in->out edge drops to zero, which severs exactly
 *   the flow through that node), then warm-start PreflowPush::repair()
 *   so only the affected flow is cancelled and re-augmented. Every
 *   published Topology carries the full placement and the same
 *   connections, in the same order, as the initial one; a dead node
 *   simply carries zero flow.
 *
 * - Cold: rebuild the placement graph masked to live nodes (a dead
 *   node holds no layers and has no connections in the published
 *   Topology) and re-solve preflow-push from scratch. Kept as the
 *   oracle that tests and benchmarks replay a liveness sequence
 *   against: the repaired flow value always equals the cold value;
 *   per-edge flows agree whenever the max flow is unique.
 *
 * Beyond liveness, capacity overrides generalize the re-solve trigger
 * to observed-throughput drift (ROADMAP: "Incremental max-flow and
 * drift-triggered re-solve"): when a node's EWMA decode throughput
 * falls below its planned flow, the simulator shrinks the node's
 * compute capacity via setNodeCapacity() so the straggler loses
 * routing weight mid-run.
 */

#ifndef HELIX_SCHEDULER_TOPOLOGY_MANAGER_H
#define HELIX_SCHEDULER_TOPOLOGY_MANAGER_H

#include <memory>
#include <vector>

#include "placement/placement_graph.h"
#include "scheduler/scheduler.h"

namespace helix {
namespace scheduler {

/** How TopologyManager re-solves after a liveness or capacity event. */
enum class ResolveMode
{
    /** Rebuild the masked placement graph and cold-solve (oracle). */
    Cold,
    /** Keep one persistent flow network and warm-start repair. */
    Repair,
};

/**
 * Tracks node liveness and keeps a Topology solved on the surviving
 * subgraph of a placement. The cluster, profiler, and placement are
 * held by reference and must outlive the manager.
 */
class TopologyManager
{
  public:
    TopologyManager(const cluster::ClusterSpec &cluster,
                    const cluster::Profiler &profiler,
                    const placement::ModelPlacement &placement,
                    placement::GraphBuildOptions options = {},
                    ResolveMode mode = ResolveMode::Repair);

    /** The topology solved for the current liveness set. */
    [[nodiscard]] const Topology &current() const { return *topo; }

    [[nodiscard]] bool nodeAlive(int node) const;

    /**
     * Mark @p node dead or alive and re-solve max-flow on the
     * surviving subgraph. Recovery also restores the node's profiled
     * compute capacity, clearing any drift shrink. No-op (returning
     * the current flow) when the liveness bit is unchanged.
     * @return the max-flow value of the new topology (tokens/s).
     */
    double setNodeAlive(int node, bool alive);

    /**
     * Override @p node's compute capacity to @p tokens_per_s (e.g.
     * the observed EWMA throughput of a drifting straggler) and
     * re-solve so routing weight shifts away from it. A negative
     * value restores the profiled capacity. No-op on dead nodes and
     * on unchanged values.
     * @return the max-flow value of the new topology (tokens/s).
     */
    double setNodeCapacity(int node, double tokens_per_s);

    /** Flow planned through @p node's compute edge by the current
     *  topology (tokens/s) — the reference the drift trigger compares
     *  observed EWMA throughput against. */
    [[nodiscard]] double plannedNodeFlow(int node) const;

    /** Max-flow value of the current topology (tokens/s). */
    [[nodiscard]] double currentFlow() const { return topo->maxFlow(); }

    /** Number of cold max-flow solves performed (initial build + one
     *  per effective event in Cold mode). */
    [[nodiscard]] int numSolves() const { return solves; }

  private:
    /** Rebuild the masked placement graph and re-solve (Cold), or
     *  update the persistent graph's capacities and repair (Repair),
     *  then refresh the published Topology. */
    void resolve();

    /** Set each compute edge of @p graph to effectiveCapacity(),
     *  skipping edges whose rounded capacity would not change. */
    void setCapacities(placement::PlacementGraph &graph) const;

    /** Publish @p graph's solved flows over @p placement as the
     *  current Topology and planned node flows. */
    void publish(const placement::ModelPlacement &placement,
                 placement::PlacementGraph &graph);

    /** Current compute capacity of @p node (tokens/s): the override
     *  when set, otherwise the profiled decode throughput; 0 for dead
     *  nodes and nodes holding no layers. */
    double effectiveCapacity(int node) const;

    const cluster::ClusterSpec &clusterRef;
    const cluster::Profiler &profilerRef;
    const placement::ModelPlacement &placementRef;
    placement::GraphBuildOptions opts;
    ResolveMode mode;
    std::vector<bool> alive;
    /** Per-node compute-capacity override (tokens/s); < 0 = profiled. */
    std::vector<double> capOverride;
    /** Persistent flow network (Repair mode only). */
    std::unique_ptr<placement::PlacementGraph> liveGraph;
    std::unique_ptr<Topology> topo;
    /** Planned per-node compute-edge flow of the current topology. */
    std::vector<double> planned;
    int solves = 0;
};

} // namespace scheduler
} // namespace helix

#endif // HELIX_SCHEDULER_TOPOLOGY_MANAGER_H
