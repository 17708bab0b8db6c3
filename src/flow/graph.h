/**
 * @file
 * Residual flow network shared by the max-flow solvers and the
 * placement graph builder.
 *
 * Layout: one CSR array of arcs. Every edge is a forward arc plus a
 * residual twin; vertex v's arcs (forward arcs leaving v and residual
 * twins of edges entering v) sit contiguously in
 * [arcBegin(v), arcEnd(v)). An arc is 16 bytes: its head, its twin's
 * position with the arc's direction in the sign bit, and its residual
 * capacity. Forward arcs keep their original capacity in a side array
 * of 8 bytes per arc position, so each arc costs 24 bytes in all (48
 * per edge) and an edge's flow is original - residual. The arcs and
 * the side array share one allocation.
 *
 * A graph is built in two steps: the vertices' degrees are counted
 * first (FlowGraph(degree)), then every edge is added with addEdge().
 * Arc order is insertion order: within a vertex's block, arcs appear in
 * the order their edges were added. The solvers scan blocks in that
 * order, so the same edges added in the same order give bit-identical
 * flows. Graphs whose degrees are not known up front are collected in
 * an EdgeList, whose build() counts and fills the same way.
 *
 * Helix edge capacities are tokens per second derived from profiling
 * (Sec. 4.3 of the paper) and are not naturally integral. The network
 * stores them as integer Units of 2^-20 token/s: addEdge() and
 * setEdgeCapacity() round each capacity once (toUnits), and every
 * residual, excess and flow the solvers compute is exact integer
 * arithmetic on those units, so no comparison needs a tolerance and
 * the max-flow value does not depend on the order flow was pushed in.
 * Values leave the network as doubles (flowOn, originalCapacity,
 * outCapacity, netOutflow) by one division by 2^20, which is exact
 * below 2^53 units (8.6e9 token/s); Helix's largest capacity, a
 * coordinator link, is about 3e8 token/s.
 */

#ifndef HELIX_FLOW_GRAPH_H
#define HELIX_FLOW_GRAPH_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace helix {
namespace flow {

/** Index of a vertex in a FlowGraph. */
using NodeId = int32_t;

/** Position of an arc in a FlowGraph's arc array. */
using ArcId = int32_t;

constexpr NodeId kInvalidNode = -1;
constexpr ArcId kInvalidArc = -1;

/** A capacity or flow in units of 2^-20 token/s. */
using Units = int64_t;

/** Units per token/s. */
constexpr double kUnitsPerToken = 0x1p20;

/**
 * Round a capacity in token/s to the nearest unit, halves up: what
 * std::llround gives, without its library call. The fraction is exact,
 * since every double of 2^52 or more is whole.
 *
 * A capacity must be a number in [0, 2^42) token/s, i.e. below 2^62
 * units. The solvers also sum capacities (the source's excess is its
 * whole out-capacity), and those sums must stay below 2^63 units,
 * 8.8e12 token/s; on generated placement graphs of up to 1000 nodes
 * the largest is 5.2e10 token/s.
 */
inline Units
toUnits(double tokens_per_s)
{
    HELIX_ASSERT(tokens_per_s >= 0.0 && tokens_per_s < 0x1p42);
    const double scaled = tokens_per_s * kUnitsPerToken;
    const auto whole = static_cast<Units>(scaled);
    return scaled - static_cast<double>(whole) >= 0.5 ? whole + 1 : whole;
}

/** A unit count in token/s; exact below 2^53 units. */
inline double
fromUnits(Units units)
{
    return static_cast<double>(units) / kUnitsPerToken;
}

/** One arc of the residual network. */
struct Arc
{
    /** Vertex the arc enters. */
    NodeId head;
    /** Twin's position; the sign bit (kResidualBit) marks a residual
     *  twin, clear on forward arcs. */
    uint32_t twinAndDir;
    /** Remaining residual capacity. */
    Units residual;
};

constexpr uint32_t kResidualBit = 0x80000000u;

static_assert(sizeof(Arc) == 16, "an arc is 16 bytes");

/**
 * Residual flow network in CSR form. The vertex count and each
 * vertex's degree are fixed at construction; addEdge() then places
 * each edge's two arcs in their vertices' blocks.
 */
class FlowGraph
{
  public:
    /** An empty network with no vertices. */
    FlowGraph() = default;

    /**
     * Size the network: one vertex per entry of @p degree, vertex v
     * with room for degree[v] arcs (one per edge, forward or residual,
     * incident to v). Fill it with exactly that many addEdge() calls.
     */
    explicit FlowGraph(const std::vector<uint32_t> &degree);

    /** Resize in place to FlowGraph(@p degree), reusing the storage
     *  of this network, whose arcs and flows it drops. */
    void assign(const std::vector<uint32_t> &degree);

    /** Number of vertices. */
    [[nodiscard]] size_t numNodes() const { return firstArc.size() - 1; }

    /** Number of edges added so far (forward arcs). */
    [[nodiscard]] size_t numEdges() const { return edges; }

    /** Number of arc positions (twice the edges once filled). */
    [[nodiscard]] size_t numArcs() const { return arcCount; }

    /**
     * Add a directed edge with the given capacity in token/s, rounded
     * to Units: a forward arc at the next free position of @p from's
     * block and a zero-capacity residual twin at the next free
     * position of @p to's.
     * @return the forward arc's position.
     */
    ArcId addEdge(NodeId from, NodeId to, double capacity);

    /** First arc of @p node's block. */
    [[nodiscard]] ArcId arcBegin(NodeId node) const
    {
        return static_cast<ArcId>(firstArc[node]);
    }

    /** One past the last arc of @p node's block. */
    [[nodiscard]] ArcId arcEnd(NodeId node) const
    {
        return static_cast<ArcId>(firstArc[node + 1]);
    }

    /** Access an arc (forward or residual) by position. */
    [[nodiscard]] const Arc &arc(ArcId a) const { return slots[a].arc; }
    Arc &arc(ArcId a) { return slots[a].arc; }

    /** Whether @p a is a forward arc (not a residual twin). */
    [[nodiscard]] bool isForward(ArcId a) const
    {
        return (arc(a).twinAndDir & kResidualBit) == 0;
    }

    /** Position of @p a's twin. */
    [[nodiscard]] ArcId twin(ArcId a) const
    {
        return static_cast<ArcId>(arc(a).twinAndDir & ~kResidualBit);
    }

    /** Vertex @p a leaves: its twin's head. */
    [[nodiscard]] NodeId tail(ArcId a) const { return arc(twin(a)).head; }

    /** Vertex @p a enters. */
    [[nodiscard]] NodeId head(ArcId a) const { return arc(a).head; }

    /** Original capacity of an arc in Units (0 on residual twins). */
    [[nodiscard]] Units originalUnits(ArcId a) const
    {
        return slots[arcCount + static_cast<size_t>(a) / 2].original[a & 1];
    }

    /**
     * Flow currently on a forward arc in Units, i.e. how much of its
     * original capacity has been consumed: original - residual.
     */
    [[nodiscard]] Units flowUnits(ArcId forward_arc) const
    {
        HELIX_ASSERT(forward_arc >= 0 &&
                     static_cast<size_t>(forward_arc) < arcCount);
        HELIX_ASSERT(isForward(forward_arc));
        return originalUnits(forward_arc) - arc(forward_arc).residual;
    }

    /** Original capacity of a forward arc in token/s. */
    [[nodiscard]] double originalCapacity(ArcId forward_arc) const
    {
        return fromUnits(originalUnits(forward_arc));
    }

    /** Flow currently on a forward arc in token/s. */
    [[nodiscard]] double flowOn(ArcId forward_arc) const
    {
        return fromUnits(flowUnits(forward_arc));
    }

    /** Restore every arc's residual capacity to its original value. */
    void resetFlow();

    /**
     * Change a forward arc's capacity (token/s, rounded to Units) while
     * preserving the flow currently recorded on it. The residual
     * capacity becomes new_capacity - current_flow and may go negative
     * when the edge is now over-committed; PreflowPush::repair() restores feasibility
     * (and maximality) incrementally from that state.
     *
     * Live-serving call sites edit TopologyManager's persistent
     * warm-start network, which is coordinator-confined state.
     */
    void setEdgeCapacity(ArcId forward_arc, double capacity);

    /** Whether every arc position has been filled by addEdge(). */
    [[nodiscard]] bool filled() const { return 2 * edges == arcCount; }

    /** Total capacity leaving @p node over forward arcs, in token/s. */
    [[nodiscard]] double outCapacity(NodeId node) const;

    /**
     * Net flow leaving @p node in token/s: flow on forward out-arcs
     * minus flow on forward in-arcs. At the source this is the flow
     * value.
     */
    [[nodiscard]] double netOutflow(NodeId node) const;

    /**
     * Forward arcs edited by setEdgeCapacity since the last solver
     * pass — PreflowPush::repair's phase-1 worklist, letting it visit
     * only the edited arcs instead of scanning every edge. Consumed
     * (cleared) by solve()/repair(); may hold duplicates.
     */
    std::vector<ArcId> &dirtyEdges() { return dirty; }

  private:
    /**
     * The arcs, in slots [0, numArcs()), then the side array of
     * original capacities, two to a slot: arc a's in slot
     * numArcs() + a / 2. One allocation, so the network is a single
     * block of the heap. Zero-initialization activates (and zeroes)
     * every slot's original pair, which residual twins keep; addEdge()
     * makes an arc slot's arc active by assigning it.
     */
    union Slot
    {
        Units original[2];
        Arc arc;
    };
    std::vector<Slot> slots;
    size_t arcCount = 0;

    Units &original(ArcId a)
    {
        return slots[arcCount + static_cast<size_t>(a) / 2].original[a & 1];
    }
    /** Vertex v's block is [firstArc[v], firstArc[v + 1]). */
    std::vector<uint32_t> firstArc = std::vector<uint32_t>(1, 0);
    /** Next free position of each vertex's block while filling. */
    std::vector<uint32_t> nextFree;
    std::vector<ArcId> dirty;
    size_t edges = 0;
};

/**
 * The edges of a graph whose degrees are not known up front (tests,
 * oracle inputs), kept as a list until build() counts the degrees and
 * fills a FlowGraph in insertion order.
 */
class EdgeList
{
  public:
    /** Create an isolated vertex and return its id. */
    NodeId addNode() { return static_cast<NodeId>(nodes++); }

    /** Record an edge. @return its index k; build()'s forward[k] is
     *  its forward arc. */
    size_t addEdge(NodeId from, NodeId to, double capacity);

    [[nodiscard]] size_t numNodes() const { return nodes; }
    [[nodiscard]] size_t numEdges() const { return list.size(); }

    /**
     * The network of these vertices and edges. When @p forward is
     * given, it receives each edge's forward arc, by edge index.
     */
    [[nodiscard]] FlowGraph build(std::vector<ArcId> *forward = nullptr) const;

  private:
    struct Entry
    {
        NodeId from;
        NodeId to;
        double capacity;
    };
    size_t nodes = 0;
    std::vector<Entry> list;
};

} // namespace flow
} // namespace helix

#endif // HELIX_FLOW_GRAPH_H
