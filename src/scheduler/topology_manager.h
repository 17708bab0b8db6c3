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
 * (RequestScheduler::onTopologyChange swaps them in).
 *
 * Two re-solve strategies exist (ResolveMode):
 *
 * - Repair (the default, and the simulator's only runtime path): keep
 *   one persistent flow network over the full placement where every
 *   liveness/capacity event is a single compute-edge capacity update
 *   (a dead node's in->out edge drops to zero, which severs exactly
 *   the flow through that node), then warm-start PreflowPush::repair()
 *   so only the affected flow is cancelled and re-augmented.
 *
 * - Cold: rebuild the placement graph masked to live nodes and
 *   re-solve preflow-push from scratch. Kept as the oracle that tests
 *   and benchmarks replay a liveness sequence against: the repaired
 *   flow value always equals the cold value; per-edge flows agree
 *   whenever the max flow is unique.
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

#include "core/annotations.h"
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
 *
 * Coordinator-confined: re-solves mutate the published Topology the
 * schedulers route by, so every member runs in the simulator's
 * coordinator phase or a serial barrier step, never on a node-lane
 * shard worker (HELIX_COORDINATOR_ONLY, checked by helix-analyze).
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
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] const Topology &current() const { return *topo; }

    HELIX_COORDINATOR_ONLY
    [[nodiscard]] bool nodeAlive(int node) const;

    /**
     * Mark @p node dead or alive and re-solve max-flow on the
     * surviving subgraph. Recovery also restores the node's profiled
     * compute capacity, clearing any drift shrink. No-op (returning
     * the current flow) when the liveness bit is unchanged.
     * @return the max-flow value of the new topology (tokens/s).
     */
    HELIX_COORDINATOR_ONLY
    double setNodeAlive(int node, bool alive);

    /**
     * Override @p node's compute capacity to @p tokens_per_s (e.g.
     * the observed EWMA throughput of a drifting straggler) and
     * re-solve so routing weight shifts away from it. A negative
     * value restores the profiled capacity. No-op on dead nodes and
     * on unchanged values.
     * @return the max-flow value of the new topology (tokens/s).
     */
    HELIX_COORDINATOR_ONLY
    double setNodeCapacity(int node, double tokens_per_s);

    /** Current compute capacity of @p node (tokens/s): the override
     *  when set, otherwise the profiled decode throughput; 0 for
     *  nodes holding no layers. */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] double nodeCapacity(int node) const;

    /** Flow planned through @p node's compute edge by the current
     *  topology (tokens/s) — the reference the drift trigger compares
     *  observed EWMA throughput against. */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] double plannedNodeFlow(int node) const;

    /** Max-flow value of the current topology (tokens/s). */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] double currentFlow() const { return topo->maxFlow(); }

    /** Number of cold max-flow solves performed (initial build + one
     *  per effective event in Cold mode). */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] int numSolves() const { return solves; }

    /** Number of warm-start incremental repairs performed (Repair
     *  mode only; the initial build is always a cold solve). */
    HELIX_COORDINATOR_ONLY
    [[nodiscard]] int numRepairs() const { return repairs; }

    HELIX_COORDINATOR_ONLY
    [[nodiscard]] ResolveMode resolveMode() const { return mode; }

  private:
    /** Rebuild the masked placement graph and re-solve (Cold), or
     *  update the persistent graph's capacities and repair (Repair),
     *  then refresh the published Topology. */
    void resolve();

    /** Compute capacity currently in force for @p node. */
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
    int repairs = 0;
};

} // namespace scheduler
} // namespace helix

#endif // HELIX_SCHEDULER_TOPOLOGY_MANAGER_H
