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

PlacementGraph::PlacementGraph(const cluster::ClusterSpec &cluster,
                               const cluster::Profiler &profiler,
                               const ModelPlacement &placement,
                               GraphBuildOptions options)
{
    const int n = cluster.numNodes();
    const int num_layers = profiler.modelSpec().numLayers;
    side = n + 1;

    src = net.addNode();
    dst = net.addNode();
    endpoint = {cluster::kCoordinator, cluster::kCoordinator};
    inV.assign(n, flow::kInvalidNode);
    outV.assign(n, flow::kInvalidNode);
    compEdge.assign(n, flow::kInvalidEdge);
    for (int i = 0; i < n; ++i) {
        const NodePlacement &p = placement[i];
        if (p.count == 0)
            continue;
        inV[i] = net.addNode();
        outV[i] = net.addNode();
        endpoint.insert(endpoint.end(), 2, i);
        double throughput =
            profiler.decodeThroughput(cluster.node(i), p.count);
        if (options.computeCapOverride &&
            i < static_cast<int>(options.computeCapOverride->size()) &&
            (*options.computeCapOverride)[i] >= 0.0) {
            throughput = (*options.computeCapOverride)[i];
        }
        compEdge[i] = net.addEdge(inV[i], outV[i], throughput);
    }

    struct Connection
    {
        int from;
        int to;
        flow::EdgeId edge;
    };
    std::vector<Connection> added;
    auto addConnection = [&](int from, int to, double capacity) {
        flow::NodeId a = (from == cluster::kCoordinator) ? src
                                                         : outV[from];
        flow::NodeId b = (to == cluster::kCoordinator) ? dst : inV[to];
        added.push_back({from, to, net.addEdge(a, b, capacity)});
    };

    const double act_bytes = profiler.activationBytes();
    const double tok_bytes = profiler.tokenBytes();

    for (int i = 0; i < n; ++i) {
        const NodePlacement &p = placement[i];
        if (p.count == 0)
            continue;
        // Criterion 1: coordinator -> node holding the first layer.
        if (p.start == 0) {
            double cap = profiler.linkTokensPerSecond(
                cluster.link(cluster::kCoordinator, i), tok_bytes);
            addConnection(cluster::kCoordinator, i, cap);
        }
        // Criterion 2: node holding the last layer -> coordinator.
        if (p.end() == num_layers) {
            double cap = profiler.linkTokensPerSecond(
                cluster.link(i, cluster::kCoordinator), tok_bytes);
            addConnection(i, cluster::kCoordinator, cap);
        }
        // Criterion 3: node -> node holding the next needed layer.
        for (int j = 0; j < n; ++j) {
            if (j == i || placement[j].count == 0)
                continue;
            if (options.filter && !options.filter->allowed(i, j))
                continue;
            if (connectionValid(p, placement[j],
                                options.allowPartialInference)) {
                double cap = profiler.linkTokensPerSecond(
                    cluster.link(i, j), act_bytes);
                addConnection(i, j, cap);
            }
        }
    }

    // Rows fill in source order, and within a row in target order
    // except for the coordinator -> node row, whose entries arrive
    // interleaved with the others: a stable sort by (from, to) puts
    // every row in order.
    std::stable_sort(added.begin(), added.end(),
                     [](const Connection &a, const Connection &b) {
                         return a.from != b.from ? a.from < b.from
                                                 : a.to < b.to;
                     });
    connRow.assign(static_cast<size_t>(side) + 1, 0);
    connTo.reserve(added.size());
    connEdge.reserve(added.size());
    for (const Connection &conn : added) {
        ++connRow[static_cast<size_t>(conn.from) + 2];
        connTo.push_back(conn.to);
        connEdge.push_back(conn.edge);
    }
    for (size_t row = 1; row < connRow.size(); ++row)
        connRow[row] += connRow[row - 1];
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

int
PlacementGraph::clusterEndpoint(flow::NodeId vertex) const
{
    HELIX_ASSERT(vertex >= 0 &&
                 static_cast<size_t>(vertex) < endpoint.size());
    return endpoint[vertex];
}

bool
PlacementGraph::isInVertex(flow::NodeId vertex) const
{
    const int node = clusterEndpoint(vertex);
    return node != cluster::kCoordinator && inV[node] == vertex;
}

double
estimateServingThroughput(const cluster::ClusterSpec &cluster,
                          const cluster::Profiler &profiler,
                          const ModelPlacement &placement,
                          PlacementGraph &graph)
{
    double flow_value = graph.maxThroughput();
    if (flow_value <= flow::kFlowEps)
        return 0.0;

    const cluster::CostModelParams &cost = profiler.params();
    const model::TransformerSpec &spec = profiler.modelSpec();

    // Flow-weighted average pipeline round-trip: per stage one
    // iteration of service plus ~half an iteration of queueing, plus
    // link latency and a one-token activation transmission per hop.
    auto paths = flow::decomposeFlow(graph.graph(), graph.source(),
                                     graph.sink());
    double weighted_rt = 0.0;
    double total_flow = 0.0;
    for (const flow::FlowPath &path : paths) {
        double rt = 0.0;
        int prev_endpoint = cluster::kCoordinator;
        for (size_t i = 1; i < path.nodes.size(); ++i) {
            flow::NodeId vertex = path.nodes[i];
            int endpoint = graph.clusterEndpoint(vertex);
            if (graph.isInVertex(vertex)) {
                // Network hop into this node.
                const cluster::LinkSpec &link =
                    cluster.link(prev_endpoint, endpoint);
                rt += link.latencyS +
                      profiler.activationBytes() /
                          link.bytesPerSecond();
            } else if (endpoint != cluster::kCoordinator) {
                // Service at this node: 1.5 iterations (service +
                // expected residual-iteration queueing).
                int count = placement[endpoint].count;
                int batch = std::max(
                    1, std::min(cost.referenceDecodeBatch,
                                profiler.maxDecodeBatch(
                                    cluster.node(endpoint), count)));
                rt += 1.5 * profiler.decodeIterationSeconds(
                                cluster.node(endpoint), count, batch,
                                cost.planningContextLen);
                prev_endpoint = endpoint;
            } else {
                // Sink: final token hop back to the coordinator.
                const cluster::LinkSpec &link =
                    cluster.link(prev_endpoint, cluster::kCoordinator);
                rt += link.latencyS;
            }
        }
        weighted_rt += path.amount * rt;
        total_flow += path.amount;
    }
    if (total_flow <= flow::kFlowEps)
        return 0.0;
    double avg_rt = weighted_rt / total_flow;

    // Little's-law ceiling: concurrently resident requests are
    // bounded by aggregate KV capacity.
    double token_layers = 0.0;
    for (int i = 0; i < cluster.numNodes(); ++i) {
        if (placement[i].count > 0) {
            token_layers += static_cast<double>(profiler.kvCapacityBytes(
                                cluster.node(i), placement[i].count)) /
                            spec.kvBytesPerTokenPerLayer();
        }
    }
    double inflight = token_layers /
                      (cost.planningContextLen * spec.numLayers);
    double little_bound = avg_rt > 0.0 ? inflight / avg_rt
                                       : flow_value;
    return std::min(flow_value, little_bound);
}

} // namespace placement
} // namespace helix
