#include "flow/max_flow.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace helix {
namespace flow {

namespace {

/** The forward arc of @p a's edge: @p a itself or its twin. */
ArcId
forwardOf(const FlowGraph &graph, ArcId a)
{
    return graph.isForward(a) ? a : graph.twin(a);
}

} // namespace

PreflowPush::PreflowPush(FlowGraph &g) : graph(g)
{
}

void
PreflowPush::resetCurrentArcs()
{
    currentArc.resize(graph.numNodes());
    for (size_t v = 0; v < currentArc.size(); ++v)
        currentArc[v] = graph.arcBegin(static_cast<NodeId>(v));
}

uint32_t
PreflowPush::nextStamp()
{
    visited.resize(graph.numNodes(), 0);
    if (++stamp == 0) {
        std::fill(visited.begin(), visited.end(), 0);
        stamp = 1;
    }
    return stamp;
}

void
PreflowPush::activate(NodeId node)
{
    int lbl = label[node];
    buckets[lbl].push_back(node);
    highestActive = std::max(highestActive, lbl);
}

void
PreflowPush::labelInsert(NodeId node, int lbl)
{
    labelPrev[node] = kInvalidNode;
    labelNext[node] = labelFirst[lbl];
    if (labelFirst[lbl] != kInvalidNode)
        labelPrev[labelFirst[lbl]] = node;
    labelFirst[lbl] = node;
}

void
PreflowPush::labelErase(NodeId node, int lbl)
{
    if (labelPrev[node] != kInvalidNode)
        labelNext[labelPrev[node]] = labelNext[node];
    else
        labelFirst[lbl] = labelNext[node];
    if (labelNext[node] != kInvalidNode)
        labelPrev[labelNext[node]] = labelPrev[node];
}

void
PreflowPush::push(NodeId node, ArcId a)
{
    Arc &e = graph.arc(a);
    Arc &rev = graph.arc(graph.twin(a));
    const Units amount = std::min(excess[node], e.residual);
    e.residual -= amount;
    rev.residual += amount;
    excess[node] -= amount;
    excess[e.head] += amount;
}

void
PreflowPush::relabel(NodeId node)
{
    const int n = static_cast<int>(graph.numNodes());
    int min_label = std::numeric_limits<int>::max();
    for (ArcId a = graph.arcBegin(node); a < graph.arcEnd(node); ++a) {
        const Arc &e = graph.arc(a);
        if (e.residual > 0)
            min_label = std::min(min_label, label[e.head]);
    }
    const int old = label[node];
    labelErase(node, old);
    label[node] = (min_label == std::numeric_limits<int>::max())
                      ? n + 1
                      : min_label + 1;
    if (label[node] < n)
        labelInsert(node, label[node]);
    // Gap heuristic: if no node remains at the old label, every node
    // with a larger label (below n) can never reach the sink again;
    // lift them above n, which parks them until phase 2. The
    // membership lists make this touch only the lifted nodes.
    if (labelFirst[old] == kInvalidNode) {
        for (int g = old + 1; g < n; ++g) {
            for (NodeId v = labelFirst[g]; v != kInvalidNode;) {
                NodeId next = labelNext[v];
                label[v] = n + 1;
                v = next;
            }
            labelFirst[g] = kInvalidNode;
        }
    }
    currentArc[node] = graph.arcBegin(node);
    workSinceRelabel += 12;
}

void
PreflowPush::globalRelabel(NodeId source, NodeId sink)
{
    const int n = static_cast<int>(graph.numNodes());
    // Exact distance labels via reverse BFS from the sink. Nodes that
    // cannot reach the sink are parked at n + 1; phase 2 returns their
    // excess to the source.
    std::fill(label.begin(), label.end(), n + 1);
    label[sink] = 0;
    bfsQueue.clear();
    bfsQueue.push_back(sink);
    for (size_t head = 0; head < bfsQueue.size(); ++head) {
        NodeId u = bfsQueue[head];
        const int next_label = label[u] + 1;
        for (ArcId a = graph.arcBegin(u); a < graph.arcEnd(u); ++a) {
            // Traverse arcs backwards: v can reach u if the residual
            // arc v->u has capacity, i.e. the twin of u->v does.
            const NodeId v = graph.head(a);
            if (graph.arc(graph.twin(a)).residual > 0 &&
                label[v] == n + 1 && v != source) {
                label[v] = next_label;
                bfsQueue.push_back(v);
            }
        }
    }
    label[source] = n;
    std::fill(labelFirst.begin(), labelFirst.end(), kInvalidNode);
    resetCurrentArcs();
    for (auto &bucket : buckets)
        bucket.clear();
    highestActive = -1;
    for (NodeId v = 0; v < n; ++v) {
        if (v == source || label[v] >= n)
            continue;
        labelInsert(v, label[v]);
        if (v != sink && excess[v] > 0)
            activate(v);
    }
    workSinceRelabel = 0;
}

void
PreflowPush::discharge(NodeId node, NodeId source, NodeId sink)
{
    const int n = static_cast<int>(graph.numNodes());
    const ArcId end = graph.arcEnd(node);
    while (excess[node] > 0) {
        ArcId a = currentArc[node];
        if (a >= end) {
            relabel(node);
            if (label[node] >= n)
                return; // Cannot reach the sink; phase 2 handles it.
            continue;
        }
        const Arc &e = graph.arc(a);
        const NodeId to = e.head;
        if (e.residual > 0 && label[node] == label[to] + 1) {
            const bool to_was_inactive = excess[to] == 0;
            push(node, a);
            workSinceRelabel += 1;
            if (to_was_inactive && to != source && to != sink)
                activate(to);
        } else {
            currentArc[node] = a + 1;
        }
    }
}

double
PreflowPush::solve(NodeId source, NodeId sink)
{
    HELIX_ASSERT(source != sink);
    HELIX_ASSERT(graph.filled());
    size_t n = graph.numNodes();
    excess.assign(n, 0);
    label.assign(n, 0);
    resetCurrentArcs();
    labelFirst.assign(n, kInvalidNode);
    labelNext.assign(n, kInvalidNode);
    labelPrev.assign(n, kInvalidNode);
    buckets.resize(n);
    for (auto &bucket : buckets)
        bucket.clear();
    highestActive = -1;

    // Saturate all edges out of the source (self-loops carry no flow).
    for (ArcId a = graph.arcBegin(source); a < graph.arcEnd(source); ++a) {
        if (graph.isForward(a)) {
            const Arc &e = graph.arc(a);
            if (e.residual > 0 && e.head != source) {
                excess[source] += e.residual;
                push(source, a);
            }
        }
    }
    // Exact initial labels and the initial active set.
    globalRelabel(source, sink);

    const long relabel_interval = 6 * static_cast<long>(n) +
                                  static_cast<long>(graph.numEdges());

    while (highestActive >= 0) {
        if (workSinceRelabel > relabel_interval) {
            globalRelabel(source, sink);
            continue; // Active buckets were rebuilt.
        }
        auto &bucket = buckets[highestActive];
        if (bucket.empty()) {
            --highestActive;
            continue;
        }
        NodeId node = bucket.back();
        bucket.pop_back();
        if (excess[node] == 0 || label[node] != highestActive)
            continue; // Stale bucket entry.
        discharge(node, source, sink);
    }

    const Units value = excess[sink];
    convertToFlow(source, sink);
    // A cold solve incorporates every capacity edit; repair() must
    // not reprocess them.
    graph.dirtyEdges().clear();
    return fromUnits(value);
}

void
PreflowPush::convertToFlow(NodeId source, NodeId sink)
{
    // Phase 2: nodes parked at label >= n may still hold excess that
    // never reached the sink. Return it to the source by cancelling
    // flow along residual walks, so the recorded edge flows satisfy
    // conservation (required by the IWRR weights).
    for (NodeId v = 0; v < static_cast<NodeId>(graph.numNodes()); ++v) {
        if (v == source || v == sink || excess[v] == 0)
            continue;
        cancelFlow(v, source, /*toward_source=*/true, excess[v]);
        excess[v] = 0;
    }
}

void
PreflowPush::cancelFlow(NodeId start, NodeId terminal, bool toward_source,
                        Units amount)
{
    // Walks toward the source take residual twins of incoming flow
    // edges; walks toward the sink take flow-carrying forward arcs.
    // Either way a step cancels flow on forwardOf(traversed arc).
    while (amount > 0) {
        const uint32_t walk = nextStamp();
        walkArcs.clear();
        walkNodes.assign(1, start);
        visited[start] = walk;
        NodeId at = start;
        NodeId cycle_at = kInvalidNode;
        while (at != terminal) {
            // Follow the thickest flow-carrying arc, so each walk
            // cancels as much of the amount as it can.
            ArcId chosen = kInvalidArc;
            Units best_flow = 0;
            for (ArcId a = graph.arcBegin(at); a < graph.arcEnd(at); ++a) {
                if (graph.isForward(a) == toward_source)
                    continue;
                const Units f = graph.flowUnits(forwardOf(graph, a));
                if (f > best_flow) {
                    best_flow = f;
                    chosen = a;
                }
            }
            if (chosen == kInvalidArc) {
                HELIX_PANIC("flow repair: stranded %lld units of "
                            "surplus at node %d",
                            static_cast<long long>(amount), at);
            }
            walkArcs.push_back(chosen);
            at = graph.head(chosen);
            walkNodes.push_back(at);
            if (at != terminal && visited[at] == walk) {
                cycle_at = at;
                break;
            }
            visited[at] = walk;
        }
        // Cancel the flow cycle and retry the walk, or cancel
        // min(amount, path bottleneck) along the whole walk.
        size_t first = 0;
        if (cycle_at != kInvalidNode) {
            while (walkNodes[first] != cycle_at)
                ++first;
        }
        Units delta = cycle_at != kInvalidNode
                          ? std::numeric_limits<Units>::max()
                          : amount;
        for (size_t i = first; i < walkArcs.size(); ++i)
            delta = std::min(delta,
                             graph.flowUnits(forwardOf(graph, walkArcs[i])));
        for (size_t i = first; i < walkArcs.size(); ++i) {
            const ArcId forward = forwardOf(graph, walkArcs[i]);
            graph.arc(forward).residual += delta;
            graph.arc(graph.twin(forward)).residual -= delta;
        }
        if (cycle_at == kInvalidNode)
            amount -= delta;
    }
}

bool
PreflowPush::augmentLevels(NodeId source, NodeId sink)
{
    label.assign(graph.numNodes(), -1);
    label[source] = 0;
    bfsQueue.clear();
    bfsQueue.push_back(source);
    for (size_t head = 0; head < bfsQueue.size(); ++head) {
        NodeId u = bfsQueue[head];
        for (ArcId a = graph.arcBegin(u); a < graph.arcEnd(u); ++a) {
            const Arc &e = graph.arc(a);
            if (e.residual > 0 && label[e.head] < 0) {
                label[e.head] = label[u] + 1;
                bfsQueue.push_back(e.head);
            }
        }
    }
    return label[sink] >= 0;
}

Units
PreflowPush::augmentBlocking(NodeId node, NodeId sink, Units limit)
{
    if (node == sink)
        return limit;
    const ArcId end = graph.arcEnd(node);
    for (; currentArc[node] < end; ++currentArc[node]) {
        const ArcId a = currentArc[node];
        Arc &e = graph.arc(a);
        if (e.residual > 0 && label[e.head] == label[node] + 1) {
            const Units pushed = augmentBlocking(
                e.head, sink, std::min(limit, e.residual));
            if (pushed > 0) {
                e.residual -= pushed;
                graph.arc(graph.twin(a)).residual += pushed;
                return pushed;
            }
        }
    }
    return 0;
}

double
PreflowPush::repair(NodeId source, NodeId sink)
{
    HELIX_ASSERT(source != sink);
    HELIX_ASSERT(graph.filled());

    // Phase 1: restore feasibility. setEdgeCapacity() leaves an
    // over-committed arc with negative residual capacity; clamp its
    // flow to the new capacity and drain the surplus along the walks
    // that carried it — backwards to the source and forwards to the
    // sink — so conservation holds everywhere again. Only edges
    // edited since the last solver pass (the graph's dirty list) can
    // be over-committed, so this visits the edit batch, not every
    // edge.
    for (ArcId a : graph.dirtyEdges()) {
        Arc &e = graph.arc(a);
        if (e.residual >= 0)
            continue;
        const Units surplus = -e.residual;
        e.residual = 0;
        graph.arc(graph.twin(a)).residual = graph.originalUnits(a);
        const NodeId from = graph.tail(a);
        const NodeId to = e.head;
        if (from != source)
            cancelFlow(from, source, /*toward_source=*/true, surplus);
        if (to != sink)
            cancelFlow(to, sink, /*toward_source=*/false, surplus);
    }
    graph.dirtyEdges().clear();

    // Phase 2: the feasible flow may no longer be maximum — capacity
    // increases open new paths and phase 1 may have cancelled
    // reroutable flow. Augment shortest residual paths until none
    // remain; by max-flow/min-cut the result equals a cold solve's
    // value, while the work is proportional to the delta.
    while (augmentLevels(source, sink)) {
        resetCurrentArcs();
        while (augmentBlocking(source, sink,
                               std::numeric_limits<Units>::max()) > 0) {
        }
    }

    // The repaired value is the net flow leaving the source.
    return graph.netOutflow(source);
}

std::vector<bool>
minCutSourceSide(const FlowGraph &graph, NodeId source)
{
    HELIX_ASSERT(graph.filled());
    std::vector<bool> reachable(graph.numNodes(), false);
    reachable[source] = true;
    std::vector<NodeId> queue{source};
    for (size_t head = 0; head < queue.size(); ++head) {
        NodeId u = queue[head];
        for (ArcId a = graph.arcBegin(u); a < graph.arcEnd(u); ++a) {
            const Arc &e = graph.arc(a);
            if (e.residual > 0 && !reachable[e.head]) {
                reachable[e.head] = true;
                queue.push_back(e.head);
            }
        }
    }
    return reachable;
}

} // namespace flow
} // namespace helix
