/**
 * @file
 * Graph abstraction of a cluster under a model placement (Sec. 4.3,
 * Fig. 2): each compute node becomes an (in, out) vertex pair whose
 * connecting edge carries the node's inference throughput; valid
 * network connections become edges whose capacity is the link
 * bandwidth divided by the per-token payload. The max flow from
 * source (coordinator) to sink equals the placement's maximum serving
 * throughput, and the per-edge flows become the IWRR scheduling
 * weights (Sec. 5.1).
 */

#ifndef HELIX_PLACEMENT_PLACEMENT_GRAPH_H
#define HELIX_PLACEMENT_PLACEMENT_GRAPH_H

#include <optional>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/profiler.h"
#include "flow/graph.h"
#include "placement/placement.h"

namespace helix {
namespace placement {

/**
 * Set of directed compute-node pairs allowed to communicate. Used by
 * the cluster-pruning MILP speedup (Sec. 4.5): when absent, every pair
 * may connect.
 */
class ConnectionFilter
{
  public:
    /** Build an all-pairs-allowed filter for @p num_nodes nodes. */
    [[nodiscard]] static ConnectionFilter allowAll(int num_nodes);

    /**
     * Prune slow links so each node keeps roughly @p target_degree
     * outgoing connections (the paper prunes to average degree 12).
     * Links are ranked by bandwidth, descending. Coordinator links are
     * never pruned.
     */
    [[nodiscard]] static ConnectionFilter pruneByBandwidth(
        const cluster::ClusterSpec &cluster, int target_degree);

    /** Whether compute pair (from, to) may communicate. */
    [[nodiscard]] bool allowed(int from, int to) const;

    /** Number of allowed directed compute-compute pairs. */
    [[nodiscard]] int numAllowed() const;

    [[nodiscard]] int numNodes() const { return side; }

  private:
    int side = 0;
    std::vector<bool> mask;
};

/**
 * Whether a request leaving node @p from (having completed layers up
 * to from's end) can continue on node @p to (Sec. 4.3's validity
 * criteria). With partial inference the condition is
 * s_to <= e_from < e_to; without it, e_from == s_to.
 */
[[nodiscard]] bool connectionValid(const NodePlacement &from,
                                   const NodePlacement &to,
                     bool allow_partial_inference);

/** Options controlling placement-graph construction. */
struct GraphBuildOptions
{
    /** Allow overlapping placements with partial inference. */
    bool allowPartialInference = true;
    /** Optional pruning filter; nullptr means all pairs allowed. */
    const ConnectionFilter *filter = nullptr;
    /**
     * Optional per-node compute-capacity overrides (tokens/s);
     * entries < 0 mean "use the profiled decode throughput". Used by
     * the live topology manager to shrink drifting nodes when it
     * rebuilds cold. nullptr means no overrides.
     */
    const std::vector<double> *computeCapOverride = nullptr;
};

/**
 * The flow network for one (cluster, placement) pair, with helpers to
 * run max-flow and read per-connection flow values.
 */
class PlacementGraph
{
  public:
    PlacementGraph(const cluster::ClusterSpec &cluster,
                   const cluster::Profiler &profiler,
                   const ModelPlacement &placement,
                   GraphBuildOptions options = {});

    /**
     * Max source→sink flow (tokens/second) via preflow-push. Runs at
     * most once; subsequent calls return the cached value.
     */
    [[nodiscard]] double maxThroughput();

    /**
     * Incrementally repair the flow after setComputeCapacity() calls
     * via PreflowPush::repair(): only flow through the changed arcs
     * is cancelled and re-augmented, instead of a cold re-solve. Also
     * valid on an unsolved graph (degenerates to a full solve).
     * @return the updated max-flow value, which becomes the cached
     *         maxThroughput() value.
     *
     * Live-serving call sites run against TopologyManager's
     * persistent graph, which is coordinator-confined state.
     */
    [[nodiscard]] double repairFlow();

    /**
     * Update @p node's compute-edge capacity in place (tokens/s),
     * preserving the flow currently recorded on the graph. Zero
     * severs all flow through the node — equivalent to removing it
     * from the graph. Call repairFlow() (or re-solve) afterwards;
     * until then recorded flows may be infeasible.
     */
    void setComputeCapacity(int node, double capacity);

    /** Forward edge carrying @p node's compute throughput, or
     *  flow::kInvalidEdge when the node holds no layers. */
    [[nodiscard]] flow::EdgeId computeEdge(int node) const;

    /** Flow currently routed through @p node's compute edge (0 for
     *  nodes holding no layers). Requires a solved/repaired flow. */
    [[nodiscard]] double nodeFlow(int node) const;

    /** Flow on the connection from @p from to @p to; endpoints may be
     *  cluster::kCoordinator. Requires maxThroughput() first. */
    [[nodiscard]] double connectionFlow(int from, int to) const;

    /** Whether a connection edge exists between the endpoints. */
    [[nodiscard]] bool hasConnection(int from, int to) const;

    /** All existing directed connections with their flows.
     *  Requires maxThroughput() first. */
    struct ConnectionInfo
    {
        int from = 0; // cluster::kCoordinator or node index
        int to = 0;
        double capacity = 0.0;
        double flow = 0.0;
    };
    [[nodiscard]] std::vector<ConnectionInfo> connections() const;

    /** The underlying flow network (for tests and diagnostics). */
    [[nodiscard]] const flow::FlowGraph &graph() const { return net; }

    [[nodiscard]] flow::NodeId source() const { return src; }
    [[nodiscard]] flow::NodeId sink() const { return dst; }

    /** in/out vertex of a compute node in the flow network. */
    [[nodiscard]] flow::NodeId inVertex(int node) const;
    [[nodiscard]] flow::NodeId outVertex(int node) const;

    /**
     * Map a flow-network vertex back to its cluster endpoint:
     * cluster::kCoordinator for source/sink, otherwise the compute
     * node index. In-vertices return the node; out-vertices too.
     */
    [[nodiscard]] int clusterEndpoint(flow::NodeId vertex) const;

    /** Whether @p vertex is a compute node's in-vertex. */
    [[nodiscard]] bool isInVertex(flow::NodeId vertex) const;

  private:
    const cluster::ClusterSpec &clusterRef;
    const ModelPlacement placementCopy;
    flow::FlowGraph net;
    flow::NodeId src = flow::kInvalidNode;
    flow::NodeId dst = flow::kInvalidNode;
    std::vector<flow::NodeId> inV;
    std::vector<flow::NodeId> outV;
    /** Compute edge (in -> out) per node; kInvalidEdge if no layers. */
    std::vector<flow::EdgeId> compEdge;
    /** Edge id per directed connection, keyed by (from+1)*side+(to+1). */
    std::vector<flow::EdgeId> connEdge;
    int side = 0;
    std::optional<double> cachedFlow;

    int key(int from, int to) const;
};

/**
 * Estimate the throughput a placement can actually serve, combining
 * the max-flow capacity with a Little's-law bound: the cluster's
 * aggregate KV capacity limits concurrently resident requests, and the
 * flow-weighted average pipeline round-trip time (per-stage iteration
 * plus queueing plus link latencies) limits how often each resident
 * request produces a token. Pure max-flow is indifferent between
 * shallow and deep (or cross-region) placements of equal capacity;
 * this estimate is how Helix's planner "balances network overhead with
 * single node's GPU utilization" (Sec. 6.4).
 *
 * @param graph a PlacementGraph for the placement; maxThroughput() is
 *              invoked if not already computed
 * @return estimated tokens/second
 */
[[nodiscard]] double estimateServingThroughput(
    const cluster::ClusterSpec &cluster,
                                 const cluster::Profiler &profiler,
                                 const ModelPlacement &placement,
                                 PlacementGraph &graph);

} // namespace placement
} // namespace helix

#endif // HELIX_PLACEMENT_PLACEMENT_GRAPH_H
