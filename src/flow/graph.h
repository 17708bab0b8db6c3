/**
 * @file
 * Directed weighted graph with residual-edge bookkeeping, shared by the
 * max-flow solvers and the placement graph builder.
 *
 * Capacities are doubles because Helix edge capacities are tokens per
 * second derived from profiling (Sec. 4.3 of the paper) and are not
 * naturally integral.
 */

#ifndef HELIX_FLOW_GRAPH_H
#define HELIX_FLOW_GRAPH_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace helix {
namespace flow {

/** Index of a vertex in a FlowGraph. */
using NodeId = int32_t;

/** Index of a directed edge in a FlowGraph. */
using EdgeId = int32_t;

constexpr NodeId kInvalidNode = -1;
constexpr EdgeId kInvalidEdge = -1;

/** Tolerance used when comparing flow values. */
constexpr double kFlowEps = 1e-9;

/**
 * A directed edge paired with its residual reverse edge. Forward edges
 * have even ids; their residual twins have odd ids (id ^ 1).
 */
struct Edge
{
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    /** Remaining residual capacity. */
    double capacity = 0.0;
    /** Original capacity at creation time (0 for residual twins). */
    double originalCapacity = 0.0;
};

/**
 * Residual flow network. Vertices are dense integer ids assigned by
 * addNode(); each addEdge() creates a forward edge and a zero-capacity
 * residual twin.
 */
class FlowGraph
{
  public:
    FlowGraph() = default;

    /** Create an isolated vertex and return its id. */
    NodeId addNode(std::string label = "");

    /** Number of vertices. */
    [[nodiscard]] size_t numNodes() const { return adjacency.size(); }

    /** Number of user-added (forward) edges. */
    [[nodiscard]] size_t numEdges() const { return edges.size() / 2; }

    /**
     * Add a directed edge with the given capacity. A residual twin with
     * zero capacity is added automatically.
     * @return the id of the forward edge (always even).
     */
    EdgeId addEdge(NodeId from, NodeId to, double capacity);

    /** Access an edge (forward or residual) by id. */
    [[nodiscard]] const Edge &edge(EdgeId id) const { return edges[id]; }
    Edge &edge(EdgeId id) { return edges[id]; }

    /** Ids of all edges (forward and residual) leaving @p node. */
    [[nodiscard]] const std::vector<EdgeId> &outEdges(NodeId node) const;

    /** Human-readable label attached to @p node. */
    [[nodiscard]] const std::string &nodeLabel(NodeId node) const;

    /**
     * Flow currently on a forward edge, i.e. how much of its original
     * capacity has been consumed: original - residual.
     */
    [[nodiscard]] double flowOn(EdgeId forward_edge) const;

    /** Restore every edge's residual capacity to its original value. */
    void resetFlow();

    /**
     * Change a forward edge's capacity while preserving the flow
     * currently recorded on it. The residual capacity becomes
     * new_capacity - current_flow and may go negative when the edge is
     * now over-committed; PreflowPush::repair() restores feasibility
     * (and maximality) incrementally from that state.
     *
     * Live-serving call sites edit TopologyManager's persistent
     * warm-start network, which is coordinator-confined state.
     */
    void setEdgeCapacity(EdgeId forward_edge, double capacity);

    /** Total capacity leaving @p node over forward edges. */
    [[nodiscard]] double outCapacity(NodeId node) const;

    /**
     * Net flow leaving @p node: flow on forward out-edges minus flow
     * on forward in-edges. At the source this is the flow value; both
     * solve() and repair() report it through this one accumulation so
     * the two paths agree bit-for-bit.
     */
    [[nodiscard]] double netOutflow(NodeId node) const;

    /**
     * Largest forward-edge capacity ever configured (via addEdge or
     * setEdgeCapacity) — the solvers' tolerance scale. A high-water
     * mark, not the current maximum, so it is O(1) to maintain; a
     * marginally loose tolerance after a capacity shrink only affects
     * which sub-noise flows get snapped to zero.
     */
    [[nodiscard]] double capacityScale() const { return capScale; }

    /**
     * Forward edges edited by setEdgeCapacity since the last solver
     * pass — PreflowPush::repair's phase-1 worklist, letting it visit
     * only the edited arcs instead of scanning every edge. Consumed
     * (cleared) by solve()/repair(); may hold duplicates.
     */
    std::vector<EdgeId> &dirtyEdges() { return dirty; }

  private:
    std::vector<Edge> edges;
    std::vector<std::vector<EdgeId>> adjacency;
    std::vector<std::string> labels;
    std::vector<EdgeId> dirty;
    double capScale = 0.0;
};

} // namespace flow
} // namespace helix

#endif // HELIX_FLOW_GRAPH_H
