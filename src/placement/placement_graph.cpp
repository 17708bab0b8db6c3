#include "placement/placement_graph.h"

#include <algorithm>
#include <functional>

#include "flow/max_flow.h"
#include "util/logging.h"

namespace helix {
namespace placement {

ConnectionFilter
ConnectionFilter::pruneByBandwidth(const cluster::ClusterSpec &cluster,
                                   int target_degree)
{
    int n = cluster.numNodes();
    ConnectionFilter filter;
    filter.side = n;
    filter.mask.assign(static_cast<size_t>(n) * n, false);
    for (int from = 0; from < n; ++from) {
        // Rank outgoing links by bandwidth and keep the fastest ones.
        std::vector<std::pair<double, int>> ranked;
        for (int to = 0; to < n; ++to) {
            if (to == from)
                continue;
            ranked.push_back(
                {cluster.link(from, to).bandwidthBps, to});
        }
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto &a, const auto &b) {
                      return a.first > b.first;
                  });
        int keep = std::min<int>(target_degree,
                                 static_cast<int>(ranked.size()));
        for (int r = 0; r < keep; ++r) {
            filter.mask[static_cast<size_t>(from) * n +
                        ranked[r].second] = true;
        }
    }
    return filter;
}

bool
ConnectionFilter::allowed(int from, int to) const
{
    HELIX_ASSERT(from >= 0 && from < side && to >= 0 && to < side);
    return mask[static_cast<size_t>(from) * side + to];
}

bool
connectionValid(const NodePlacement &from, const NodePlacement &to)
{
    if (from.count == 0 || to.count == 0)
        return false;
    return to.start <= from.end() && from.end() < to.end();
}

bool
isConnection(const ModelPlacement &placement, int num_layers, int from,
             int to)
{
    const int n = static_cast<int>(placement.size());
    HELIX_ASSERT(from >= cluster::kCoordinator && from < n &&
                 to >= cluster::kCoordinator && to < n);
    if (from == cluster::kCoordinator) {
        return to != cluster::kCoordinator && placement[to].count > 0 &&
               placement[to].start == 0;
    }
    if (to == cluster::kCoordinator) {
        return placement[from].count > 0 &&
               placement[from].end() == num_layers;
    }
    return connectionValid(placement[from], placement[to]);
}

ConnectionTable::ConnectionTable(const ModelPlacement &placement,
                                 int num_layers,
                                 const ConnectionFilter *filter)
{
    assign(placement, num_layers, filter);
}

void
ConnectionTable::assign(const ModelPlacement &placement, int num_layers,
                        const ConnectionFilter *filter)
{
    // The lists the rows are made of: per layer e, ascending, the
    // holders a request can continue on after finishing layer e - 1,
    // those holding layer e (s <= e < end). So the successors of a
    // holder i's end layer are exactly the j with
    // connectionValid(placement[i], placement[j]), never i itself.
    // Layer e's list is targets[layer_begin[e] .. layer_end(e)), and
    // the coordinator sits right before layer num_layers' list, so a
    // row that starts there also returns to the coordinator. Lists run
    // to the last layer any holder ends on.
    HELIX_ASSERT(num_layers >= 0);
    const int n = static_cast<int>(placement.size());
    int top = num_layers;
    for (const NodePlacement &p : placement.nodes) {
        HELIX_ASSERT(p.start >= 0 && p.count >= 0);
        if (p.count > 0)
            top = std::max(top, p.end());
    }
    std::vector<uint32_t> &layer_begin = layerBegin;
    layer_begin.assign(static_cast<size_t>(top) + 2, 0);
    for (const NodePlacement &p : placement.nodes) {
        if (p.count == 0)
            continue;
        for (int layer = p.start; layer < p.end(); ++layer)
            ++layer_begin[static_cast<size_t>(layer)];
    }
    // Each list's end, with one slot for the coordinator before layer
    // num_layers' list.
    uint32_t at = 0;
    for (int layer = 0; layer <= top; ++layer) {
        if (layer == num_layers)
            ++at;
        at += layer_begin[static_cast<size_t>(layer)];
        layer_begin[static_cast<size_t>(layer)] = at;
    }
    layer_begin[static_cast<size_t>(top) + 1] = at;
    targets.resize(at);
    // Nodes go in descending order, each list filled from its end, so
    // every list is sorted and each cursor ends at its list's start.
    for (int j = n - 1; j >= 0; --j) {
        const NodePlacement &p = placement[j];
        if (p.count == 0)
            continue;
        for (int layer = p.start; layer < p.end(); ++layer)
            targets[--layer_begin[static_cast<size_t>(layer)]] = j;
    }
    auto layer_end = [&](size_t layer) {
        return layer_begin[layer + 1] -
               (layer + 1 == static_cast<size_t>(num_layers));
    };
    targets[layer_begin[static_cast<size_t>(num_layers)] - 1] =
        cluster::kCoordinator;
    // slot() binary-searches each row, and every row is a sorted
    // list or a part of one.
    for (size_t layer = 0; layer + 1 < layer_begin.size(); ++layer) {
        const auto first = targets.begin() + layer_begin[layer];
        const auto last = targets.begin() + layer_end(layer);
        HELIX_ASSERT(std::adjacent_find(first, last,
                                        std::greater_equal<int>()) ==
                     last);
    }

    // The rows in slot order: the holders of layer 0 (criterion 1),
    // then per holder i the coordinator if i holds the last layer
    // (criterion 2) and every successor of i's end layer that the
    // filter allows (criterion 3). Without a filter a holder's row is
    // its end layer's list (from the coordinator before it when that
    // layer is num_layers); with one, a filtered copy appended to
    // targets.
    rows.clear();
    rows.reserve(static_cast<size_t>(n) + 1);
    rows.push_back({layer_begin[0], layer_end(0), 0});
    uint64_t slots = rows.back().end - rows.back().begin;
    for (int i = 0; i < n; ++i) {
        const NodePlacement &p = placement[i];
        RowRange range{0, 0, static_cast<uint32_t>(slots)};
        if (p.count > 0) {
            const auto e = static_cast<size_t>(p.end());
            range.begin = layer_begin[e] - (p.end() == num_layers);
            range.end = layer_end(e);
            if (filter) {
                const auto copy = static_cast<uint32_t>(targets.size());
                for (uint32_t k = range.begin; k < range.end; ++k) {
                    const int j = targets[k];
                    if (j == cluster::kCoordinator ||
                        filter->allowed(i, j))
                        targets.push_back(j);
                }
                range.begin = copy;
                range.end = static_cast<uint32_t>(targets.size());
            }
        }
        rows.push_back(range);
        slots += range.end - range.begin;
    }
    HELIX_ASSERT(slots <= ConnectionTable::kNoSlot);
    numSlots = static_cast<uint32_t>(slots);
}

ConnectionTable::Row
ConnectionTable::row(int from) const
{
    HELIX_ASSERT(from >= cluster::kCoordinator &&
                 static_cast<size_t>(from) + 1 < rows.size());
    const RowRange &range = rows[static_cast<size_t>(from) + 1];
    return {targets.data() + range.begin, targets.data() + range.end,
            range.firstSlot};
}

uint32_t
ConnectionTable::slot(int from, int to) const
{
    HELIX_ASSERT(to >= cluster::kCoordinator &&
                 static_cast<size_t>(to) + 1 < rows.size());
    const Row out = row(from);
    const int *it = std::lower_bound(out.begin(), out.end(), to);
    if (it == out.end() || *it != to)
        return kNoSlot;
    return out.firstSlot + static_cast<uint32_t>(it - out.begin());
}

PlacementGraph::PlacementGraph(const cluster::ClusterSpec &cluster,
                               const cluster::Profiler &profiler,
                               const ModelPlacement &placement,
                               const ConnectionFilter *filter)
{
    assign(cluster, profiler, placement, filter);
}

void
PlacementGraph::assign(const cluster::ClusterSpec &cluster,
                       const cluster::Profiler &profiler,
                       const ModelPlacement &placement,
                       const ConnectionFilter *filter)
{
    const int num_layers = profiler.modelSpec().numLayers;
    if (table && table.use_count() == 1) {
        table->assign(placement, num_layers, filter);
    } else {
        table = std::make_shared<ConnectionTable>(placement, num_layers,
                                                  filter);
    }
    cachedFlow.reset();
    const int n = cluster.numNodes();
    HELIX_ASSERT(placement.size() == static_cast<size_t>(n));
    side = n + 1;

    // Vertices: source, sink, then an (in, out) pair per holder.
    flow::NodeId vertices = 0;
    src = vertices++;
    dst = vertices++;
    inV.assign(n, flow::kInvalidNode);
    outV.assign(n, flow::kInvalidNode);
    compEdge.assign(n, flow::kInvalidArc);
    for (int i = 0; i < n; ++i) {
        if (placement[i].count == 0)
            continue;
        inV[i] = vertices++;
        outV[i] = vertices++;
    }
    auto tail = [&](int from) {
        return from == cluster::kCoordinator ? src : outV[from];
    };
    auto head = [&](int to) {
        return to == cluster::kCoordinator ? dst : inV[to];
    };

    // Counting pass: every vertex's degree, so each vertex's arc block
    // is sized before the edges fill it.
    degree.assign(static_cast<size_t>(vertices), 0);
    for (int i = 0; i < n; ++i) {
        if (placement[i].count > 0) {
            ++degree[static_cast<size_t>(inV[i])];
            ++degree[static_cast<size_t>(outV[i])];
        }
    }
    for (int from = cluster::kCoordinator; from < n; ++from) {
        for (int to : table->row(from)) {
            ++degree[static_cast<size_t>(tail(from))];
            ++degree[static_cast<size_t>(head(to))];
        }
    }
    net.assign(degree);

    for (int i = 0; i < n; ++i) {
        const NodePlacement &p = placement[i];
        if (p.count == 0)
            continue;
        compEdge[i] = net.addEdge(
            inV[i], outV[i],
            profiler.decodeThroughput(cluster.node(i), p.count));
    }

    // Connection edges per holder i: coordinator -> i, then i's row.
    // The source's block thus holds the coordinator's row in order, and
    // each out-vertex's block its compute twin and then its row in
    // order, which is where connectionArc() finds them.
    const double act_bytes = profiler.activationBytes();
    const double tok_bytes = profiler.tokenBytes();
    const ConnectionTable::Row first_hops = table->row(cluster::kCoordinator);
    auto addConnection = [&](int from, int to, flow::ArcId want) {
        const bool coordinator =
            from == cluster::kCoordinator || to == cluster::kCoordinator;
        const double cap = profiler.linkTokensPerSecond(
            cluster.link(from, to), coordinator ? tok_bytes : act_bytes);
        const flow::ArcId arc = net.addEdge(tail(from), head(to), cap);
        HELIX_ASSERT(arc == want);
    };
    size_t first_hop = 0;
    for (int i = 0; i < n; ++i) {
        if (first_hop < first_hops.size() && first_hops[first_hop] == i) {
            addConnection(cluster::kCoordinator, i,
                          connectionArc(cluster::kCoordinator, first_hop));
            ++first_hop;
        }
        const ConnectionTable::Row out = table->row(i);
        if (out.size() == 0)
            continue;
        const flow::ArcId first = connectionArc(i, 0);
        for (size_t k = 0; k < out.size(); ++k)
            addConnection(i, out[k], first + static_cast<flow::ArcId>(k));
    }
}

double
PlacementGraph::maxThroughput()
{
    std::optional<flow::PreflowPush> solver;
    return maxThroughput(solver);
}

double
PlacementGraph::maxThroughput(std::optional<flow::PreflowPush> &solver)
{
    if (!cachedFlow) {
        if (!solver)
            solver.emplace(net);
        cachedFlow = solver->solve(src, dst);
    }
    return *cachedFlow;
}

double
PlacementGraph::repairFlow()
{
    flow::PreflowPush solver(net);
    cachedFlow = solver.repair(src, dst);
    return *cachedFlow;
}

void
PlacementGraph::setComputeCapacity(int node, double capacity)
{
    HELIX_ASSERT(node >= 0 && node < side - 1);
    HELIX_ASSERT(compEdge[node] != flow::kInvalidArc);
    net.setEdgeCapacity(compEdge[node], capacity);
}

flow::ArcId
PlacementGraph::computeEdge(int node) const
{
    HELIX_ASSERT(node >= 0 && node < side - 1);
    return compEdge[node];
}

double
PlacementGraph::nodeFlow(int node) const
{
    HELIX_ASSERT(node >= 0 && node < side - 1);
    if (compEdge[node] == flow::kInvalidArc)
        return 0.0;
    HELIX_ASSERT(cachedFlow.has_value());
    return net.flowOn(compEdge[node]);
}

bool
PlacementGraph::hasConnection(int from, int to) const
{
    return table->slot(from, to) != ConnectionTable::kNoSlot;
}

double
PlacementGraph::connectionFlow(int from, int to) const
{
    HELIX_ASSERT(cachedFlow.has_value());
    const uint32_t slot = table->slot(from, to);
    if (slot == ConnectionTable::kNoSlot)
        return 0.0;
    return net.flowOn(connectionArc(from, slot - table->row(from).firstSlot));
}

std::vector<PlacementGraph::ConnectionInfo>
PlacementGraph::connections() const
{
    std::vector<ConnectionInfo> result;
    result.reserve(table->size());
    for (int from = cluster::kCoordinator; from < side - 1; ++from) {
        const ConnectionTable::Row out = table->row(from);
        for (size_t k = 0; k < out.size(); ++k) {
            const flow::ArcId id = connectionArc(from, k);
            ConnectionInfo info;
            info.from = from;
            info.to = out[k];
            info.capacity = net.originalCapacity(id);
            info.flow = cachedFlow ? net.flowOn(id) : 0.0;
            result.push_back(info);
        }
    }
    return result;
}

flow::ArcId
PlacementGraph::connectionArc(int from, size_t k) const
{
    HELIX_ASSERT(from >= cluster::kCoordinator && from < side - 1);
    HELIX_ASSERT(k < table->row(from).size());
    if (from == cluster::kCoordinator)
        return net.arcBegin(src) + static_cast<flow::ArcId>(k);
    return net.arcBegin(outV[from]) + 1 + static_cast<flow::ArcId>(k);
}

flow::NodeId
PlacementGraph::inVertex(int node) const
{
    HELIX_ASSERT(node >= 0 && node < side - 1);
    return inV[node];
}

flow::NodeId
PlacementGraph::outVertex(int node) const
{
    HELIX_ASSERT(node >= 0 && node < side - 1);
    return outV[node];
}

} // namespace placement
} // namespace helix
