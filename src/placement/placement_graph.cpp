#include "placement/placement_graph.h"

#include <algorithm>

#include "flow/max_flow.h"
#include "util/logging.h"

namespace helix {
namespace placement {

ConnectionFilter
ConnectionFilter::allowAll(int num_nodes)
{
    ConnectionFilter filter;
    filter.side = num_nodes;
    filter.mask.assign(static_cast<size_t>(num_nodes) * num_nodes, true);
    return filter;
}

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

int
ConnectionFilter::numAllowed() const
{
    int count = 0;
    for (bool b : mask)
        count += b ? 1 : 0;
    return count;
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

SuccessorIndex::SuccessorIndex(const ModelPlacement &placement,
                               bool allow_partial_inference)
{
    // Entries of node j: layers s .. end - 1 with partial inference,
    // layer s alone without it.
    auto last_layer = [&](const NodePlacement &p) {
        return allow_partial_inference ? p.end() : p.start + 1;
    };
    int extent = 0;
    for (const NodePlacement &p : placement.nodes) {
        HELIX_ASSERT(p.start >= 0 && p.count >= 0);
        if (p.count > 0)
            extent = std::max(extent, p.end());
    }
    row.assign(static_cast<size_t>(extent) + 2, 0);
    for (const NodePlacement &p : placement.nodes) {
        if (p.count == 0)
            continue;
        for (int layer = p.start; layer < last_layer(p); ++layer)
            ++row[static_cast<size_t>(layer) + 2];
    }
    for (size_t layer = 2; layer < row.size(); ++layer)
        row[layer] += row[layer - 1];
    // Row e fills from row[e + 1], which then ends where row e + 1
    // starts; nodes go in ascending order, so every row is sorted.
    nodes.resize(static_cast<size_t>(row.back()));
    for (size_t j = 0; j < placement.size(); ++j) {
        const NodePlacement &p = placement[j];
        if (p.count == 0)
            continue;
        for (int layer = p.start; layer < last_layer(p); ++layer)
            nodes[static_cast<size_t>(row[layer + 1]++)] =
                static_cast<int>(j);
    }
}

SuccessorIndex::Row
SuccessorIndex::successors(int end_layer) const
{
    HELIX_ASSERT(end_layer >= 0);
    if (static_cast<size_t>(end_layer) + 1 >= row.size())
        return {};
    return {nodes.data() + row[end_layer],
            nodes.data() + row[end_layer + 1]};
}

PlacementGraph::PlacementGraph(const cluster::ClusterSpec &cluster,
                               const cluster::Profiler &profiler,
                               const ModelPlacement &placement,
                               GraphBuildOptions options)
{
    const int n = cluster.numNodes();
    const int num_layers = profiler.modelSpec().numLayers;
    HELIX_ASSERT(placement.size() == static_cast<size_t>(n));
    side = n + 1;

    src = net.addNode();
    dst = net.addNode();
    inV.assign(n, flow::kInvalidNode);
    outV.assign(n, flow::kInvalidNode);
    compEdge.assign(n, flow::kInvalidEdge);
    for (int i = 0; i < n; ++i) {
        if (placement[i].count == 0)
            continue;
        inV[i] = net.addNode();
        outV[i] = net.addNode();
    }

    // The connections in edge order: per holder i, coordinator -> i
    // (criterion 1, i holds the first layer), i -> coordinator
    // (criterion 2, i holds the last layer), then i -> j for every
    // successor j of i's end layer that the filter allows (criterion
    // 3), ascending.
    const SuccessorIndex next(placement, options.allowPartialInference);
    auto forEachConnection = [&](auto &&visit) {
        for (int i = 0; i < n; ++i) {
            const NodePlacement &p = placement[i];
            if (p.count == 0)
                continue;
            if (p.start == 0)
                visit(cluster::kCoordinator, i);
            if (p.end() == num_layers)
                visit(i, cluster::kCoordinator);
            for (int j : next.successors(p.end())) {
                if (!options.filter || options.filter->allowed(i, j))
                    visit(i, j);
            }
        }
    };
    auto tail = [&](int from) {
        return from == cluster::kCoordinator ? src : outV[from];
    };
    auto head = [&](int to) {
        return to == cluster::kCoordinator ? dst : inV[to];
    };

    // Counting pass: every CSR row's length and every vertex's degree,
    // so each container is sized once.
    std::vector<size_t> degree(net.numNodes(), 0);
    size_t holders = 0;
    for (int i = 0; i < n; ++i) {
        if (placement[i].count > 0) {
            ++holders;
            ++degree[static_cast<size_t>(inV[i])];
            ++degree[static_cast<size_t>(outV[i])];
        }
    }
    connRow.assign(static_cast<size_t>(side) + 1, 0);
    forEachConnection([&](int from, int to) {
        ++connRow[static_cast<size_t>(from) + 2];
        ++degree[static_cast<size_t>(tail(from))];
        ++degree[static_cast<size_t>(head(to))];
    });
    for (size_t row = 1; row < connRow.size(); ++row)
        connRow[row] += connRow[row - 1];
    connTo.resize(static_cast<size_t>(connRow.back()));
    connEdge.resize(connTo.size());
    net.reserve(holders + connTo.size(), degree);

    for (int i = 0; i < n; ++i) {
        const NodePlacement &p = placement[i];
        if (p.count == 0)
            continue;
        double throughput =
            profiler.decodeThroughput(cluster.node(i), p.count);
        if (options.computeCapOverride &&
            i < static_cast<int>(options.computeCapOverride->size()) &&
            (*options.computeCapOverride)[i] >= 0.0) {
            throughput = (*options.computeCapOverride)[i];
        }
        compEdge[i] = net.addEdge(inV[i], outV[i], throughput);
    }

    // Filling pass: each connection goes to the next free slot of its
    // source's row, so every row comes out in target order.
    const double act_bytes = profiler.activationBytes();
    const double tok_bytes = profiler.tokenBytes();
    std::vector<int> fill(connRow.begin(), connRow.end() - 1);
    forEachConnection([&](int from, int to) {
        const bool coordinator =
            from == cluster::kCoordinator || to == cluster::kCoordinator;
        const double cap = profiler.linkTokensPerSecond(
            cluster.link(from, to), coordinator ? tok_bytes : act_bytes);
        const size_t k = static_cast<size_t>(fill[from + 1]++);
        connTo[k] = to;
        connEdge[k] = net.addEdge(tail(from), head(to), cap);
    });
    // connectionEdge() binary-searches each row.
    for (size_t row = 0; row + 1 < connRow.size(); ++row) {
        for (int k = connRow[row] + 1; k < connRow[row + 1]; ++k)
            HELIX_ASSERT(connTo[static_cast<size_t>(k) - 1] <
                         connTo[static_cast<size_t>(k)]);
    }
}

flow::EdgeId
PlacementGraph::connectionEdge(int from, int to) const
{
    HELIX_ASSERT(from >= cluster::kCoordinator && from < side - 1);
    HELIX_ASSERT(to >= cluster::kCoordinator && to < side - 1);
    auto first = connTo.begin() + connRow[from + 1];
    auto last = connTo.begin() + connRow[from + 2];
    auto it = std::lower_bound(first, last, to);
    if (it == last || *it != to)
        return flow::kInvalidEdge;
    return connEdge[static_cast<size_t>(it - connTo.begin())];
}

PlacementGraph::ConnectionRow
PlacementGraph::connectionRow(int from) const
{
    HELIX_ASSERT(from >= cluster::kCoordinator && from < side - 1);
    const size_t first = static_cast<size_t>(connRow[from + 1]);
    return {connTo.data() + first, connEdge.data() + first,
            connRow[from + 2] - connRow[from + 1]};
}

double
PlacementGraph::maxThroughput()
{
    if (!cachedFlow) {
        flow::PreflowPush solver(net);
        // Value is read back via netOutflow below; see comment.
        (void)solver.solve(src, dst);
        // Report the value via the same accumulation repairFlow()
        // uses, so a repaired run and a cold run of the same network
        // log bit-identical flow values.
        cachedFlow = net.netOutflow(src);
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
    HELIX_ASSERT(compEdge[node] != flow::kInvalidEdge);
    net.setEdgeCapacity(compEdge[node], capacity);
}

flow::EdgeId
PlacementGraph::computeEdge(int node) const
{
    HELIX_ASSERT(node >= 0 && node < side - 1);
    return compEdge[node];
}

double
PlacementGraph::nodeFlow(int node) const
{
    HELIX_ASSERT(node >= 0 && node < side - 1);
    if (compEdge[node] == flow::kInvalidEdge)
        return 0.0;
    HELIX_ASSERT(cachedFlow.has_value());
    return net.flowOn(compEdge[node]);
}

bool
PlacementGraph::hasConnection(int from, int to) const
{
    return connectionEdge(from, to) != flow::kInvalidEdge;
}

double
PlacementGraph::connectionFlow(int from, int to) const
{
    HELIX_ASSERT(cachedFlow.has_value());
    flow::EdgeId id = connectionEdge(from, to);
    if (id == flow::kInvalidEdge)
        return 0.0;
    return net.flowOn(id);
}

std::vector<PlacementGraph::ConnectionInfo>
PlacementGraph::connections() const
{
    std::vector<ConnectionInfo> result;
    result.reserve(connEdge.size());
    for (int from = cluster::kCoordinator; from < side - 1; ++from) {
        for (int k = connRow[from + 1]; k < connRow[from + 2]; ++k) {
            flow::EdgeId id = connEdge[static_cast<size_t>(k)];
            ConnectionInfo info;
            info.from = from;
            info.to = connTo[static_cast<size_t>(k)];
            info.capacity = net.edge(id).originalCapacity;
            info.flow = cachedFlow ? net.flowOn(id) : 0.0;
            result.push_back(info);
        }
    }
    return result;
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
