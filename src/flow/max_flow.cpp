#include "flow/max_flow.h"

#include <algorithm>
#include <limits>

#include "util/compare.h"
#include "util/logging.h"

namespace helix {
namespace flow {

namespace {

/**
 * Scale-aware comparison tolerance for a graph: edge capacities may
 * span many orders of magnitude (coordinator token links vs. compute
 * edges), so absolute kFlowEps alone cannot absorb the floating-point
 * cancellation left behind on saturated high-capacity arcs.
 */
double
scaleTolerance(const FlowGraph &graph)
{
    return std::max(kFlowEps, 1e-9 * graph.capacityScale());
}

} // namespace

PreflowPush::PreflowPush(FlowGraph &g) : graph(g)
{
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
PreflowPush::push(EdgeId edge_id)
{
    Edge &e = graph.edge(edge_id);
    Edge &rev = graph.edge(edge_id ^ 1);
    double amount = std::min(excess[e.from], e.capacity);
    e.capacity -= amount;
    rev.capacity += amount;
    excess[e.from] -= amount;
    excess[e.to] += amount;
}

void
PreflowPush::relabel(NodeId node)
{
    const int n = static_cast<int>(graph.numNodes());
    int min_label = std::numeric_limits<int>::max();
    for (EdgeId id : graph.outEdges(node)) {
        const Edge &e = graph.edge(id);
        if (e.capacity > kFlowEps)
            min_label = std::min(min_label, label[e.to]);
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
    currentArc[node] = 0;
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
        for (EdgeId id : graph.outEdges(u)) {
            // Traverse edges backwards: v can reach u if the residual
            // edge v->u has capacity, i.e. the twin of u->v does.
            const Edge &twin = graph.edge(id ^ 1);
            NodeId v = twin.from;
            if (twin.capacity > kFlowEps && label[v] == n + 1 &&
                v != source) {
                label[v] = next_label;
                bfsQueue.push_back(v);
            }
        }
    }
    label[source] = n;
    std::fill(labelFirst.begin(), labelFirst.end(), kInvalidNode);
    std::fill(currentArc.begin(), currentArc.end(), 0);
    for (auto &bucket : buckets)
        bucket.clear();
    highestActive = -1;
    for (NodeId v = 0; v < n; ++v) {
        if (v == source || label[v] >= n)
            continue;
        labelInsert(v, label[v]);
        if (v != sink && excess[v] > kFlowEps)
            activate(v);
    }
    workSinceRelabel = 0;
}

void
PreflowPush::discharge(NodeId node, NodeId source, NodeId sink)
{
    const int n = static_cast<int>(graph.numNodes());
    const auto &out = graph.outEdges(node);
    const size_t degree = out.size();
    while (excess[node] > kFlowEps) {
        size_t arc = currentArc[node];
        if (arc >= degree) {
            relabel(node);
            if (label[node] >= n)
                return; // Cannot reach the sink; phase 2 handles it.
            continue;
        }
        EdgeId id = out[arc];
        const Edge &e = graph.edge(id);
        if (e.capacity > kFlowEps && label[node] == label[e.to] + 1) {
            bool to_was_inactive = excess[e.to] <= kFlowEps;
            push(id);
            workSinceRelabel += 1;
            if (to_was_inactive && e.to != source && e.to != sink &&
                excess[e.to] > kFlowEps) {
                activate(e.to);
            }
        } else {
            currentArc[node] = arc + 1;
        }
    }
}

double
PreflowPush::solve(NodeId source, NodeId sink)
{
    HELIX_ASSERT(source != sink);
    size_t n = graph.numNodes();
    excess.assign(n, 0.0);
    label.assign(n, 0);
    currentArc.assign(n, 0);
    labelFirst.assign(n, kInvalidNode);
    labelNext.assign(n, kInvalidNode);
    labelPrev.assign(n, kInvalidNode);
    buckets.resize(n);
    for (auto &bucket : buckets)
        bucket.clear();
    highestActive = -1;

    // Saturate all edges out of the source (self-loops carry no flow).
    for (EdgeId id : graph.outEdges(source)) {
        if ((id & 1) == 0) {
            Edge &e = graph.edge(id);
            if (e.capacity > kFlowEps && e.to != source) {
                excess[source] += e.capacity;
                push(id);
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
        if (excess[node] <= kFlowEps || label[node] != highestActive)
            continue; // Stale bucket entry.
        discharge(node, source, sink);
    }

    double value = excess[sink];
    convertToFlow(source, sink);
    // A cold solve incorporates every capacity edit; repair() must
    // not reprocess them.
    graph.dirtyEdges().clear();
    return value;
}

void
PreflowPush::convertToFlow(NodeId source, NodeId sink)
{
    // Phase 2: nodes parked at label >= n may still hold excess that
    // never reached the sink. Return it to the source by cancelling
    // flow along residual walks, so the recorded edge flows satisfy
    // conservation (required by the IWRR weights).
    size_t n = graph.numNodes();
    const double tol = scaleTolerance(graph);
    std::vector<int> visited(n, 0);
    int stamp = 0;
    for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
        if (v == source || v == sink)
            continue;
        while (excess[v] > tol) {
            // Walk backwards along flow-carrying edges towards source.
            ++stamp;
            std::vector<EdgeId> walk_twins; // residual twins taken
            std::vector<NodeId> walk_nodes{v};
            visited[v] = stamp;
            NodeId at = v;
            NodeId cycle_at = kInvalidNode;
            while (at != source) {
                // Follow the thickest incoming flow edge; picking an
                // arbitrary positive edge risks chasing numerical
                // noise on saturated high-capacity links.
                EdgeId chosen = kInvalidEdge;
                double best_flow = kFlowEps;
                for (EdgeId id : graph.outEdges(at)) {
                    if ((id & 1) == 1) {
                        double f = graph.flowOn(id ^ 1);
                        if (f > best_flow) {
                            best_flow = f;
                            chosen = id;
                        }
                    }
                }
                if (chosen == kInvalidEdge) {
                    if (excess[v] <= 2.0 * tol) {
                        // Residual rounding noise; drop it.
                        excess[v] = 0.0;
                        break;
                    }
                    HELIX_PANIC("stranded excess with no incoming flow "
                                "at node %d", at);
                }
                walk_twins.push_back(chosen);
                at = graph.edge(chosen).to;
                walk_nodes.push_back(at);
                if (at != source && visited[at] == stamp) {
                    cycle_at = at;
                    break;
                }
                visited[at] = stamp;
            }
            if (cycle_at != kInvalidNode) {
                // Cancel the flow cycle and retry the walk.
                size_t start = 0;
                while (walk_nodes[start] != cycle_at)
                    ++start;
                double delta = std::numeric_limits<double>::max();
                for (size_t i = start; i < walk_twins.size(); ++i)
                    delta = std::min(delta,
                                     graph.flowOn(walk_twins[i] ^ 1));
                for (size_t i = start; i < walk_twins.size(); ++i) {
                    graph.edge(walk_twins[i] ^ 1).capacity += delta;
                    graph.edge(walk_twins[i]).capacity -= delta;
                }
                continue;
            }
            // Cancel min(excess, path bottleneck) along the walk.
            double delta = excess[v];
            for (EdgeId twin : walk_twins)
                delta = std::min(delta, graph.flowOn(twin ^ 1));
            for (EdgeId twin : walk_twins) {
                graph.edge(twin ^ 1).capacity += delta;
                graph.edge(twin).capacity -= delta;
            }
            excess[v] -= delta;
            excess[source] += delta;
        }
    }
}

void
PreflowPush::cancelFlow(NodeId start, NodeId terminal, bool toward_source,
                        double amount, double tol)
{
    const size_t n = graph.numNodes();
    std::vector<int> visited(n, 0);
    int stamp = 0;
    // Traversed arc -> forward edge whose flow the step cancels. Walks
    // toward the source take residual twins (odd ids) of incoming flow
    // edges; walks toward the sink take flow-carrying forward edges.
    auto forwardOf = [&](EdgeId traversed) {
        return toward_source ? (traversed ^ 1) : traversed;
    };
    while (amount > tol) {
        ++stamp;
        std::vector<EdgeId> walk;
        std::vector<NodeId> walk_nodes{start};
        visited[start] = stamp;
        NodeId at = start;
        NodeId cycle_at = kInvalidNode;
        while (at != terminal) {
            EdgeId chosen = kInvalidEdge;
            double best_flow = kFlowEps;
            for (EdgeId id : graph.outEdges(at)) {
                if (((id & 1) == 1) != toward_source)
                    continue;
                double f = graph.flowOn(forwardOf(id));
                if (f > best_flow) {
                    best_flow = f;
                    chosen = id;
                }
            }
            if (chosen == kInvalidEdge) {
                if (amount <= 2.0 * tol)
                    return; // Residual rounding noise; drop it.
                HELIX_PANIC("flow repair: stranded %g surplus at node "
                            "%d", amount, at);
            }
            walk.push_back(chosen);
            at = graph.edge(chosen).to;
            walk_nodes.push_back(at);
            if (at != terminal && visited[at] == stamp) {
                cycle_at = at;
                break;
            }
            visited[at] = stamp;
        }
        if (cycle_at != kInvalidNode) {
            // Cancel the flow cycle and retry the walk.
            size_t cstart = 0;
            while (walk_nodes[cstart] != cycle_at)
                ++cstart;
            double delta = std::numeric_limits<double>::max();
            for (size_t i = cstart; i < walk.size(); ++i)
                delta = std::min(delta, graph.flowOn(forwardOf(walk[i])));
            for (size_t i = cstart; i < walk.size(); ++i) {
                graph.edge(forwardOf(walk[i])).capacity += delta;
                graph.edge(forwardOf(walk[i]) ^ 1).capacity -= delta;
                touched.push_back(forwardOf(walk[i]));
            }
            continue;
        }
        double delta = amount;
        for (EdgeId id : walk)
            delta = std::min(delta, graph.flowOn(forwardOf(id)));
        for (EdgeId id : walk) {
            graph.edge(forwardOf(id)).capacity += delta;
            graph.edge(forwardOf(id) ^ 1).capacity -= delta;
            touched.push_back(forwardOf(id));
        }
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
        for (EdgeId id : graph.outEdges(u)) {
            const Edge &e = graph.edge(id);
            if (e.capacity > kFlowEps && label[e.to] < 0) {
                label[e.to] = label[u] + 1;
                bfsQueue.push_back(e.to);
            }
        }
    }
    return label[sink] >= 0;
}

double
PreflowPush::augmentBlocking(NodeId node, NodeId sink, double limit)
{
    if (node == sink)
        return limit;
    const auto &out = graph.outEdges(node);
    for (; currentArc[node] < out.size(); ++currentArc[node]) {
        EdgeId id = out[currentArc[node]];
        Edge &e = graph.edge(id);
        if (e.capacity > kFlowEps && label[e.to] == label[node] + 1) {
            double pushed = augmentBlocking(e.to, sink,
                                            std::min(limit, e.capacity));
            if (pushed > kFlowEps) {
                e.capacity -= pushed;
                graph.edge(id ^ 1).capacity += pushed;
                touched.push_back(id & ~1);
                return pushed;
            }
        }
    }
    return 0.0;
}

double
PreflowPush::repair(NodeId source, NodeId sink)
{
    HELIX_ASSERT(source != sink);
    const size_t n = graph.numNodes();
    const double tol = scaleTolerance(graph);

    // Phase 1: restore feasibility. setEdgeCapacity() leaves an
    // over-committed arc with negative residual capacity; clamp its
    // flow to the new capacity and drain the surplus along the walks
    // that carried it — backwards to the source and forwards to the
    // sink — so conservation holds everywhere again. Only edges
    // edited since the last solver pass (the graph's dirty list) can
    // be over-committed, so this visits the edit batch, not every
    // edge.
    touched.clear();
    for (EdgeId id : graph.dirtyEdges()) {
        Edge &e = graph.edge(id);
        touched.push_back(id);
        if (e.capacity >= 0.0)
            continue;
        double surplus = -e.capacity;
        e.capacity = 0.0;
        graph.edge(id ^ 1).capacity = e.originalCapacity;
        if (e.from != source)
            cancelFlow(e.from, source, /*toward_source=*/true, surplus,
                       tol);
        if (e.to != sink)
            cancelFlow(e.to, sink, /*toward_source=*/false, surplus,
                       tol);
    }
    graph.dirtyEdges().clear();

    // Phase 2: the feasible flow may no longer be maximum — capacity
    // increases open new paths and phase 1 may have cancelled
    // reroutable flow. Augment shortest residual paths until none
    // remain; by max-flow/min-cut the result equals a cold solve's
    // value, while the work is proportional to the delta.
    while (augmentLevels(source, sink)) {
        currentArc.assign(n, 0);
        while (augmentBlocking(source, sink,
                               std::numeric_limits<double>::max()) >
               kFlowEps) {
        }
    }

    // Snap sub-tolerance flows to exactly zero so a drained graph
    // (e.g. after a node failure severed every path) reports clean
    // zero flows instead of accumulated rounding noise. Only edges
    // this repair touched can have picked up fresh noise.
    for (EdgeId id : touched) {
        Edge &e = graph.edge(id);
        double f = graph.flowOn(id);
        // Exact-zero sentinel: only non-zero sub-tolerance noise gets
        // snapped.
        if (!sameValue(f, 0.0) && f < tol) {
            e.capacity = e.originalCapacity;
            graph.edge(id ^ 1).capacity = 0.0;
        }
    }

    // The repaired value is the net flow leaving the source.
    return graph.netOutflow(source);
}

Dinic::Dinic(FlowGraph &g) : graph(g)
{
}

bool
Dinic::buildLevels(NodeId source, NodeId sink)
{
    level.assign(graph.numNodes(), -1);
    level[source] = 0;
    std::vector<NodeId> queue{source};
    for (size_t head = 0; head < queue.size(); ++head) {
        NodeId u = queue[head];
        for (EdgeId id : graph.outEdges(u)) {
            const Edge &e = graph.edge(id);
            if (e.capacity > kFlowEps && level[e.to] < 0) {
                level[e.to] = level[u] + 1;
                queue.push_back(e.to);
            }
        }
    }
    return level[sink] >= 0;
}

double
Dinic::augment(NodeId node, NodeId sink, double limit)
{
    if (node == sink)
        return limit;
    const auto &out = graph.outEdges(node);
    for (; nextArc[node] < out.size(); ++nextArc[node]) {
        EdgeId id = out[nextArc[node]];
        Edge &e = graph.edge(id);
        if (e.capacity > kFlowEps && level[e.to] == level[node] + 1) {
            double pushed = augment(e.to, sink,
                                    std::min(limit, e.capacity));
            if (pushed > kFlowEps) {
                e.capacity -= pushed;
                graph.edge(id ^ 1).capacity += pushed;
                return pushed;
            }
        }
    }
    return 0.0;
}

double
Dinic::solve(NodeId source, NodeId sink)
{
    HELIX_ASSERT(source != sink);
    double total = 0.0;
    while (buildLevels(source, sink)) {
        nextArc.assign(graph.numNodes(), 0);
        for (;;) {
            double pushed = augment(
                source, sink, std::numeric_limits<double>::max());
            if (pushed <= kFlowEps)
                break;
            total += pushed;
        }
    }
    return total;
}

std::vector<bool>
minCutSourceSide(const FlowGraph &graph, NodeId source)
{
    std::vector<bool> reachable(graph.numNodes(), false);
    reachable[source] = true;
    std::vector<NodeId> queue{source};
    for (size_t head = 0; head < queue.size(); ++head) {
        NodeId u = queue[head];
        for (EdgeId id : graph.outEdges(u)) {
            const Edge &e = graph.edge(id);
            if (e.capacity > kFlowEps && !reachable[e.to]) {
                reachable[e.to] = true;
                queue.push_back(e.to);
            }
        }
    }
    return reachable;
}

} // namespace flow
} // namespace helix
