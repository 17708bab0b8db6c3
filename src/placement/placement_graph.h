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
 * The valid connections are stored once per placement, in a
 * ConnectionTable: enumerated from a per-layer successor list in
 * O(nodes + layers + connections), never by testing every node pair,
 * and kept as one CSR over source endpoints. Each owner of
 * per-connection state indexes it by the table's slots: the graph lays
 * out its forward arcs in row order (connectionArc()),
 * scheduler::Topology keeps its flows and sim::ClusterSimulator its
 * links by slot, so the three cannot drift apart. The graph holds its
 * table behind a shared pointer, and every Topology published from the
 * graph shares that one table.
 * connectionValid() stays the rule's definition, for the MILP
 * formulation (which needs a variable per pair) and the tests.
 */

#ifndef HELIX_PLACEMENT_PLACEMENT_GRAPH_H
#define HELIX_PLACEMENT_PLACEMENT_GRAPH_H

#include <cstdint>
#include <memory>
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
 * The valid connections of a placement (Sec. 4.3 criteria 1-3), stored
 * once as a CSR over source endpoints: the coordinator's row, then
 * node 0's, node 1's and so on. The coordinator's row lists the
 * holders of layer 0; node i's row lists the coordinator when i holds
 * the last layer, then every j with connectionValid(placement[i],
 * placement[j]) that the filter allows. Targets ascend in every row,
 * the coordinator (-1) first. A connection's slot is its position in
 * that order, so per-connection state lives in a plain array indexed
 * by slot. Built in O(nodes + layers + connections) from a per-layer
 * list of the nodes a request can continue on, without testing every
 * pair of nodes.
 */
class ConnectionTable
{
  public:
    ConnectionTable(const ModelPlacement &placement, int num_layers,
                    bool allow_partial_inference,
                    const ConnectionFilter *filter = nullptr);

    /** slot() of a pair that is not a connection. */
    static constexpr uint32_t kNoSlot = UINT32_MAX;

    /** The ascending targets of one row; target k is in slot
     *  firstSlot + k. */
    struct Row
    {
        const int *first = nullptr;
        const int *last = nullptr;
        uint32_t firstSlot = 0;
        [[nodiscard]] const int *begin() const { return first; }
        [[nodiscard]] const int *end() const { return last; }
        [[nodiscard]] size_t size() const
        {
            return static_cast<size_t>(last - first);
        }
        [[nodiscard]] int operator[](size_t k) const { return first[k]; }
    };

    /** Connections leaving @p from (cluster::kCoordinator or a node). */
    [[nodiscard]] Row row(int from) const;

    /** Slot of connection (from, to), by binary search in from's row,
     *  or kNoSlot; endpoints may be cluster::kCoordinator. */
    [[nodiscard]] uint32_t slot(int from, int to) const;

    /** Number of connections (slots). */
    [[nodiscard]] size_t size() const { return targets.size(); }

  private:
    /** Endpoint from owns targets[rowStart[from + 1] ..
     *  rowStart[from + 2]). */
    std::vector<uint32_t> rowStart;
    std::vector<int> targets;
};

/** Options controlling placement-graph and MILP construction: the
 *  connection rule both apply. */
struct GraphBuildOptions
{
    /** Allow overlapping placements with partial inference. */
    bool allowPartialInference = true;
    /** Optional pruning filter (Sec. 4.5 speedup 1); nullptr means
     *  all pairs allowed. */
    const ConnectionFilter *filter = nullptr;
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
     * layer-holding node, then one edge per connection of the
     * ConnectionTable, for each node i in order coordinator -> i, then
     * i's row, so arc positions are fixed by the placement. A counting
     * pass sizes every vertex's arc block, then the edges fill the
     * flow network's CSR directly. O(nodes + layers + connections)
     * time and no transient beyond the finished graph.
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

    /** Forward arc carrying @p node's compute throughput, or
     *  flow::kInvalidArc when the node holds no layers. */
    [[nodiscard]] flow::ArcId computeEdge(int node) const;

    /** Flow currently routed through @p node's compute edge (0 for
     *  nodes holding no layers). Requires a solved/repaired flow. */
    [[nodiscard]] double nodeFlow(int node) const;

    /** Flow on the connection from @p from to @p to; endpoints may be
     *  cluster::kCoordinator. Requires maxThroughput() first. */
    [[nodiscard]] double connectionFlow(int from, int to) const;

    /** Whether a connection edge exists between the endpoints. */
    [[nodiscard]] bool hasConnection(int from, int to) const;

    /** The graph's connections; connection k of row(from) is forward
     *  arc connectionArc(from, k). */
    [[nodiscard]] const ConnectionTable &connectionTable() const
    {
        return *table;
    }

    /** The same table, for owners that outlive the graph (Topology). */
    [[nodiscard]] const std::shared_ptr<const ConnectionTable> &
    sharedConnectionTable() const
    {
        return table;
    }

    /**
     * Forward arc of connection @p k of connectionTable().row(@p from)
     * (slot row.firstSlot + k). Not stored: a row's arcs are consecutive
     * in the block of its tail vertex, at the start of the source's
     * block and right after the compute twin in an out-vertex's.
     */
    [[nodiscard]] flow::ArcId connectionArc(int from, size_t k) const;

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
    std::shared_ptr<const ConnectionTable> table;
    flow::FlowGraph net;
    flow::NodeId src = flow::kInvalidNode;
    flow::NodeId dst = flow::kInvalidNode;
    std::vector<flow::NodeId> inV;
    std::vector<flow::NodeId> outV;
    /** Compute arc (in -> out) per node; kInvalidArc if no layers. */
    std::vector<flow::ArcId> compEdge;
    int side = 0;
    std::optional<double> cachedFlow;
};

} // namespace placement
} // namespace helix

#endif // HELIX_PLACEMENT_PLACEMENT_GRAPH_H
