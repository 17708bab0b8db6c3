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
 *
 * The valid connections are enumerated, not searched for: a
 * SuccessorIndex lists, per layer, the nodes a request can continue
 * on, so building a graph costs O(nodes + layers + connections), never
 * a test of every node pair. The same index gives the simulator its
 * link set (sim::ClusterSimulator), so the two cannot drift apart;
 * connectionValid() stays the rule's definition, for the MILP
 * formulation (which needs a variable per pair) and the tests.
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

/**
 * The valid connections of a placement, indexed by the layer a request
 * has reached: successors(e) lists, ascending, the layer-holding nodes
 * a request can continue on after finishing layer e - 1. With partial
 * inference those are the nodes holding layer e (s <= e < end);
 * without it, the nodes starting at e. So for every layer-holding
 * node i, successors(placement[i].end()) is exactly the set of j with
 * connectionValid(placement[i], placement[j]); i itself is never in
 * it. CSR over layers, built in O(nodes + layers + entries), where a
 * node is an entry once per layer it holds with partial inference and
 * once without: the connections come out without testing every pair
 * of nodes, each list already sorted.
 */
class SuccessorIndex
{
  public:
    SuccessorIndex(const ModelPlacement &placement,
                   bool allow_partial_inference);

    /** A run of ascending node indices. */
    struct Row
    {
        const int *first = nullptr;
        const int *last = nullptr;
        [[nodiscard]] const int *begin() const { return first; }
        [[nodiscard]] const int *end() const { return last; }
        [[nodiscard]] size_t size() const
        {
            return static_cast<size_t>(last - first);
        }
    };

    /** Nodes that can follow a node whose range ends at @p end_layer. */
    [[nodiscard]] Row successors(int end_layer) const;

  private:
    /** Layer e owns nodes[row[e] .. row[e + 1]). */
    std::vector<int> row;
    std::vector<int> nodes;
};

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
    /**
     * Build the network: an (in, out) vertex pair and compute edge per
     * layer-holding node, then the connections (Sec. 4.3 criteria 1-3),
     * for each node i in order coordinator -> i, i -> coordinator and
     * i -> j by ascending j, so edge ids are fixed by the placement.
     * Criterion 3 reads the successors of i's end layer from a
     * SuccessorIndex and applies options.filter per candidate. A
     * counting pass sizes the edge array, every adjacency list and the
     * CSR connection rows once; a second pass fills them, each row
     * already in target order. O(nodes + layers + connections) time
     * and no transient beyond the finished graph.
     */
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

    /**
     * The connections leaving @p from (cluster::kCoordinator or a
     * node), in target order with the coordinator first: target
     * to[k] over forward edge edge[k], for k < size.
     */
    struct ConnectionRow
    {
        const int *to = nullptr;
        const flow::EdgeId *edge = nullptr;
        int size = 0;
    };
    [[nodiscard]] ConnectionRow connectionRow(int from) const;

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

  private:
    flow::FlowGraph net;
    flow::NodeId src = flow::kInvalidNode;
    flow::NodeId dst = flow::kInvalidNode;
    std::vector<flow::NodeId> inV;
    std::vector<flow::NodeId> outV;
    /** Compute edge (in -> out) per node; kInvalidEdge if no layers. */
    std::vector<flow::EdgeId> compEdge;
    /**
     * Directed connections per source, CSR: source endpoint `from`
     * (row from + 1; row 0 is the coordinator) owns entries
     * connRow[from + 1] .. connRow[from + 2] of connTo and connEdge,
     * sorted by target (the coordinator, -1, first).
     */
    std::vector<int> connRow;
    std::vector<int> connTo;
    std::vector<flow::EdgeId> connEdge;
    int side = 0;
    std::optional<double> cachedFlow;

    /** Edge of connection (from, to), or flow::kInvalidEdge. */
    flow::EdgeId connectionEdge(int from, int to) const;
};

} // namespace placement
} // namespace helix

#endif // HELIX_PLACEMENT_PLACEMENT_GRAPH_H
