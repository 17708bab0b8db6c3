/**
 * @file
 * Max-flow solver.
 *
 * The primary solver is preflow-push (a.k.a. push-relabel) with the
 * highest-label selection rule, the gap heuristic, and periodic global
 * relabeling — the algorithm the Helix paper cites for evaluating the
 * serving throughput of a model placement (Sec. 4.3). Warm-start
 * repair() holds the library's one augmenting-path routine (BFS
 * levels, then blocking DFS, as in Dinic's algorithm): on a graph with
 * zero flow and no edited arcs it finds a maximum flow from scratch,
 * which is the tests' and micro-benchmarks' augmenting-path oracle
 * against a cold solve().
 *
 * solve() and repair() walk a vertex's arcs as one contiguous range of
 * the FlowGraph's CSR array (16-byte arcs, see flow/graph.h), in
 * insertion order, and keep per-vertex cursors (current arcs) as arc
 * positions.
 * Because the scan order is the insertion order, a network built from
 * the same edges in the same order yields bit-identical flows.
 *
 * Both compute in the graph's integer Units (2^-20 token/s):
 * residuals, excesses and pushed amounts are int64, and every test is
 * an exact comparison with zero. So each result is an exact maximum
 * flow of the rounded capacities: solve() and repair(), warm or from
 * zero flow, return the same value, bit for bit, and the recorded flow
 * is feasible and conserved at every interior vertex, with no
 * tolerance. Values are returned in token/s (fromUnits).
 */

#ifndef HELIX_FLOW_MAX_FLOW_H
#define HELIX_FLOW_MAX_FLOW_H

#include <cstdint>
#include <vector>

#include "flow/graph.h"

namespace helix {
namespace flow {

/**
 * Preflow-push max-flow. Mutates the graph's residual capacities; call
 * FlowGraph::resetFlow() to solve again from scratch.
 */
class PreflowPush
{
  public:
    /**
     * @param graph residual network to operate on (held by reference;
     *              must outlive the solver)
     */
    explicit PreflowPush(FlowGraph &graph);

    /**
     * Compute the maximum flow from @p source to @p sink.
     * @return the max-flow value in token/s.
     */
    [[nodiscard]] double solve(NodeId source, NodeId sink);

    /**
     * Warm-start incremental repair after capacity updates
     * (FlowGraph::setEdgeCapacity). Starting from the flow currently
     * recorded on the graph — typically the previous solve()/repair()
     * result with a handful of edited arcs — restores feasibility by
     * cancelling surplus flow on over-committed arcs along the walks
     * that carry it (back to the source and forward to the sink), then
     * re-augments on the residual graph until the flow is maximum
     * again. Only flow through the affected arcs is touched, so a
     * single-node capacity event costs a few residual walks plus the
     * augmenting delta instead of a cold solve from zero labels.
     *
     * The resulting flow value equals a cold solve()'s exactly (both
     * are maximum flows of the same integer capacities); the per-arc
     * flow assignment may differ whenever the maximum flow is not
     * unique.
     *
     * On a graph with zero flow and no edited arcs (after
     * FlowGraph::resetFlow()), phase 1 has nothing to drain and the
     * re-augmentation finds a maximum flow from scratch.
     *
     * @return the max-flow value for the current capacities, in
     *         token/s.
     *
     * Live-serving call sites run against TopologyManager's persistent
     * warm-start network, which is coordinator-confined state.
     */
    [[nodiscard]] double repair(NodeId source, NodeId sink);

  private:
    /** Push as much of @p node's excess as possible across arc @p a
     *  of its block. */
    void push(NodeId node, ArcId a);

    /** Raise a node's label to one more than its lowest neighbor. */
    void relabel(NodeId node);

    /** Recompute exact distance labels with reverse BFS from sink. */
    void globalRelabel(NodeId source, NodeId sink);

    /** Discharge all excess at @p node. */
    void discharge(NodeId node, NodeId source, NodeId sink);

    /**
     * Phase 2 of preflow-push: return each vertex's stranded excess to
     * the source with one backward cancelFlow() walk, so the recorded
     * edge flows form a valid (conserved) max flow.
     */
    void convertToFlow(NodeId source, NodeId sink);

    /** Point every vertex's current arc at the start of its block. */
    void resetCurrentArcs();

    /** A fresh stamp for the cancel walks' visited marks. */
    uint32_t nextStamp();

    /** Move a node into its label's active bucket. */
    void activate(NodeId node);

    /** Insert @p node into the membership list of label @p lbl. */
    void labelInsert(NodeId node, int lbl);

    /** Unlink @p node from the membership list of label @p lbl. */
    void labelErase(NodeId node, int lbl);

    /**
     * Cancel @p amount units of recorded flow on walks between
     * @p start and @p terminal, following the thickest flow-carrying
     * arc at every step and cancelling any flow cycles encountered.
     * With @p toward_source the walk runs backwards along incoming
     * flow to the source; otherwise forwards along outgoing flow to
     * the sink. Both solve()'s phase-2 conversion and repair()'s
     * surplus drain use it. A surplus that no flow-carrying walk can
     * take is a broken invariant and panics.
     */
    void cancelFlow(NodeId start, NodeId terminal, bool toward_source,
                    Units amount);

    /** Build residual BFS levels from @p source (repair phase 2).
     *  @return whether the sink is still reachable. */
    bool augmentLevels(NodeId source, NodeId sink);

    /** Push one blocking-flow augmentation along level-increasing
     *  residual arcs (repair phase 2). */
    Units augmentBlocking(NodeId node, NodeId sink, Units limit);

    FlowGraph &graph;
    std::vector<Units> excess;
    std::vector<int> label;
    /** Next arc to examine per vertex (a position in its block). */
    std::vector<ArcId> currentArc;
    /**
     * Active-node buckets indexed by label (highest-label rule). Only
     * labels below n are ever active: a node relabeled to n or above
     * can no longer reach the sink, so its excess is parked until the
     * phase-2 conversion returns it to the source.
     */
    std::vector<std::vector<NodeId>> buckets;
    /**
     * Intrusive doubly-linked membership lists over every non-source
     * node with label < n, indexed by label. They give the gap
     * heuristic exact emptiness checks and let it lift only the nodes
     * above a gap instead of rescanning all n nodes per gap event.
     */
    std::vector<NodeId> labelFirst;
    std::vector<NodeId> labelNext;
    std::vector<NodeId> labelPrev;
    /** Reusable queue for the global-relabel reverse BFS. */
    std::vector<NodeId> bfsQueue;
    /** Reusable scratch of the phase-2 and repair cancel walks: the
     *  stamp of the walk that last visited each vertex, and the arcs
     *  and vertices of the current walk. */
    std::vector<uint32_t> visited;
    uint32_t stamp = 0;
    std::vector<ArcId> walkArcs;
    std::vector<NodeId> walkNodes;
    int highestActive = -1;
    long workSinceRelabel = 0;
};

/**
 * Identify the source side of a minimum cut after a max-flow has been
 * computed on @p graph (vertices reachable from @p source in the
 * residual network).
 */
[[nodiscard]] std::vector<bool> minCutSourceSide(const FlowGraph &graph, NodeId source);

} // namespace flow
} // namespace helix

#endif // HELIX_FLOW_MAX_FLOW_H
