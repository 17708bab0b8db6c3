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
 * ConnectionTable whose rows share one holder list per layer: a
 * placement's connections take O(nodes + layers + sum of layer counts)
 * memory, never O(connections), and are enumerated without testing
 * every node pair. The slots of the table number the connections
 * row-major. Only the flow network keeps state per connection: the
 * graph lays out its forward arcs in row order (connectionArc()), so a
 * slot finds its arc without a map. scheduler::Topology keeps only the
 * connections that carry flow, by slot, and sim::ClusterSimulator only
 * the links that carried traffic, each checked with isConnection(),
 * the rule the unfiltered table lists. The graph holds its table
 * behind a shared pointer, and every Topology published from the graph
 * shares that one table.
 * connectionValid() defines the one connection rule, partial
 * inference (s_j <= e_i < e_j), for the MILP formulation (which needs
 * a variable per pair) and the tests.
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
#include "flow/max_flow.h"
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
 * criteria, with partial inference): s_to <= e_from < e_to.
 */
[[nodiscard]] bool connectionValid(const NodePlacement &from,
                                   const NodePlacement &to);

/**
 * Whether (@p from, @p to) is a connection of @p placement over
 * @p num_layers layers (Sec. 4.3 criteria 1-3, no filter); endpoints
 * may be cluster::kCoordinator: coordinator -> holder of layer 0,
 * holder of the last layer -> coordinator, or a node pair with
 * connectionValid(). O(1).
 */
[[nodiscard]] bool isConnection(const ModelPlacement &placement,
                                int num_layers, int from, int to);

/**
 * The valid connections of a placement (Sec. 4.3 criteria 1-3) as one
 * row per source endpoint: the coordinator's row, then node 0's, node
 * 1's and so on. The coordinator's row lists the holders of layer 0;
 * node i's row lists the coordinator when i holds the last layer, then
 * every j with connectionValid(placement[i], placement[j]) that the
 * filter allows. Targets ascend in every row, the coordinator (-1)
 * first. A connection's slot is its position in that row-major order,
 * so per-connection state can live in a plain array indexed by slot.
 *
 * Under partial inference every holder that ends on layer e has the
 * same successors, the holders of layer e, so the rows are not stored
 * per connection. The table keeps one ascending holder list per layer
 * (the coordinator right before the list of the model's last layer,
 * for the rows that return to it), and without a filter every row is
 * one of those lists: the coordinator's is layer 0's, holder i's is
 * its end layer's. With a filter each holder's row is its own filtered
 * copy, appended to the same array. Each row is a (begin, end, first
 * slot) triple, so the table takes O(nodes + layers + sum of counts)
 * memory without a filter and is built in that time, never by testing
 * every pair of nodes.
 */
class ConnectionTable
{
  public:
    ConnectionTable(const ModelPlacement &placement, int num_layers,
                    const ConnectionFilter *filter = nullptr);

    /** Rebuild in place as ConnectionTable(@p placement, @p num_layers,
     *  @p filter), reusing this table's storage. */
    void assign(const ModelPlacement &placement, int num_layers,
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
    [[nodiscard]] size_t size() const { return numSlots; }

    /** Targets the rows are stored in: at most the placement's sum of
     *  layer counts + 1 without a filter. */
    [[nodiscard]] size_t storedTargets() const { return targets.size(); }

  private:
    /** One row: targets[begin .. end), its first target in slot
     *  firstSlot. */
    struct RowRange
    {
        uint32_t begin = 0;
        uint32_t end = 0;
        uint32_t firstSlot = 0;
    };

    /** Endpoint from's row is rows[from + 1]. */
    std::vector<RowRange> rows;
    /** Where each layer's holder list starts in targets (kept for
     *  assign() to reuse). */
    std::vector<uint32_t> layerBegin;
    /** The per-layer holder lists, then any filtered rows. */
    std::vector<int> targets;
    uint32_t numSlots = 0;
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
     * time, and no storage beyond the finished graph and its vertex
     * degrees.
     */
    PlacementGraph(const cluster::ClusterSpec &cluster,
                   const cluster::Profiler &profiler,
                   const ModelPlacement &placement,
                   const ConnectionFilter *filter = nullptr);

    /**
     * Rebuild as PlacementGraph(@p cluster, @p profiler, @p placement,
     * @p filter), unsolved, reusing this graph's storage: its flow
     * network, and its connection table unless a Topology shares it.
     * A search that scores many placements in one graph, solving each
     * with maxThroughput(solver), thus allocates only when one's graph
     * outgrows every earlier one.
     */
    void assign(const cluster::ClusterSpec &cluster,
                const cluster::Profiler &profiler,
                const ModelPlacement &placement,
                const ConnectionFilter *filter = nullptr);

    /**
     * Max source→sink flow (tokens/second) via preflow-push. Runs at
     * most once; subsequent calls return the cached value.
     */
    [[nodiscard]] double maxThroughput();

    /**
     * maxThroughput() in the caller's solver storage @p solver, which
     * this graph makes on its network when empty. It refers to this
     * graph, so it serves no other one; passed again after assign(),
     * it solves the next placement without allocating.
     */
    [[nodiscard]] double maxThroughput(
        std::optional<flow::PreflowPush> &solver);

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
    [[nodiscard]] std::shared_ptr<const ConnectionTable>
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
    std::shared_ptr<ConnectionTable> table;
    flow::FlowGraph net;
    /** Arcs per vertex, the network's layout (kept for assign()). */
    std::vector<uint32_t> degree;
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
