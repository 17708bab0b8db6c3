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
connectionValid(const NodePlacement &from, const NodePlacement &to,
                bool allow_partial_inference)
{
    if (from.count == 0 || to.count == 0)
        return false;
    if (allow_partial_inference)
        return to.start <= from.end() && from.end() < to.end();
    return from.end() == to.start;
}

ConnectionTable::ConnectionTable(const ModelPlacement &placement,
                                 int num_layers,
                                 bool allow_partial_inference,
                                 const ConnectionFilter *filter)
{
    // Per layer e, ascending, the holders a request can continue on
    // after finishing layer e - 1: with partial inference those
    // holding layer e (s <= e < end), without it those starting at e.
    // So the successors of a holder i's end layer are exactly the j
    // with connectionValid(placement[i], placement[j]), never i
    // itself. CSR over layers: layer e owns next[layer_row[e] ..
    // layer_row[e + 1]).
    auto last_layer = [&](const NodePlacement &p) {
        return allow_partial_inference ? p.end() : p.start + 1;
    };
    int extent = 0;
    for (const NodePlacement &p : placement.nodes) {
        HELIX_ASSERT(p.start >= 0 && p.count >= 0);
        if (p.count > 0)
            extent = std::max(extent, p.end());
    }
    std::vector<int> layer_row(static_cast<size_t>(extent) + 2, 0);
    for (const NodePlacement &p : placement.nodes) {
        if (p.count == 0)
            continue;
        for (int layer = p.start; layer < last_layer(p); ++layer)
            ++layer_row[static_cast<size_t>(layer) + 2];
    }
    for (size_t layer = 2; layer < layer_row.size(); ++layer)
        layer_row[layer] += layer_row[layer - 1];
    // Layer e fills from layer_row[e + 1], which then ends where layer
    // e + 1 starts; nodes go in ascending order, so every list is
    // sorted.
    std::vector<int> next(static_cast<size_t>(layer_row.back()));
    const int n = static_cast<int>(placement.size());
    for (int j = 0; j < n; ++j) {
        const NodePlacement &p = placement[j];
        if (p.count == 0)
            continue;
        for (int layer = p.start; layer < last_layer(p); ++layer)
            next[static_cast<size_t>(layer_row[layer + 1]++)] = j;
    }

    // The rows in slot order, each closed by its rowStart entry: the
    // holders of layer 0 (criterion 1), then per holder i the
    // coordinator if i holds the last layer (criterion 2) and every
    // successor of i's end layer that the filter allows (criterion 3).
    // The reservation is exact without a filter.
    size_t bound = 0;
    for (const NodePlacement &p : placement.nodes) {
        if (p.count > 0) {
            bound += (p.start == 0) + (p.end() == num_layers) +
                     static_cast<size_t>(layer_row[p.end() + 1] -
                                         layer_row[p.end()]);
        }
    }
    targets.reserve(bound);
    rowStart.reserve(static_cast<size_t>(n) + 2);
    rowStart.push_back(0);
    for (int i = 0; i < n; ++i) {
        if (placement[i].count > 0 && placement[i].start == 0)
            targets.push_back(i);
    }
    rowStart.push_back(static_cast<uint32_t>(targets.size()));
    for (int i = 0; i < n; ++i) {
        const NodePlacement &p = placement[i];
        if (p.count > 0) {
            if (p.end() == num_layers)
                targets.push_back(cluster::kCoordinator);
            for (int k = layer_row[p.end()]; k < layer_row[p.end() + 1];
                 ++k) {
                const int j = next[static_cast<size_t>(k)];
                if (!filter || filter->allowed(i, j))
                    targets.push_back(j);
            }
        }
        rowStart.push_back(static_cast<uint32_t>(targets.size()));
    }
    // slot() binary-searches each row.
    for (int from = cluster::kCoordinator; from < n; ++from) {
        const Row out = row(from);
        HELIX_ASSERT(std::adjacent_find(out.begin(), out.end(),
                                        std::greater_equal<int>()) ==
                     out.end());
    }
}

ConnectionTable::Row
ConnectionTable::row(int from) const
{
    HELIX_ASSERT(from >= cluster::kCoordinator &&
                 static_cast<size_t>(from) + 2 < rowStart.size());
    const uint32_t first = rowStart[static_cast<size_t>(from) + 1];
    const uint32_t last = rowStart[static_cast<size_t>(from) + 2];
    return {targets.data() + first, targets.data() + last, first};
}

uint32_t
ConnectionTable::slot(int from, int to) const
{
    HELIX_ASSERT(to >= cluster::kCoordinator &&
                 static_cast<size_t>(to) + 2 < rowStart.size());
    const Row out = row(from);
    const int *it = std::lower_bound(out.begin(), out.end(), to);
    if (it == out.end() || *it != to)
        return kNoSlot;
    return out.firstSlot + static_cast<uint32_t>(it - out.begin());
}

PlacementGraph::PlacementGraph(const cluster::ClusterSpec &cluster,
                               const cluster::Profiler &profiler,
                               const ModelPlacement &placement,
                               GraphBuildOptions options)
    : table(std::make_shared<const ConnectionTable>(
          placement, profiler.modelSpec().numLayers,
          options.allowPartialInference, options.filter))
{
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
    std::vector<uint32_t> degree(static_cast<size_t>(vertices), 0);
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
    net = flow::FlowGraph(degree);

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
    if (!cachedFlow) {
        flow::PreflowPush solver(net);
        cachedFlow = solver.solve(src, dst);
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
