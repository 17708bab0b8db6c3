#include "flow/graph.h"

#include "util/logging.h"

namespace helix {
namespace flow {

NodeId
FlowGraph::addNode()
{
    adjacency.emplace_back();
    return static_cast<NodeId>(adjacency.size() - 1);
}

void
FlowGraph::reserve(size_t num_edges, const std::vector<size_t> &degree)
{
    HELIX_ASSERT(degree.size() == numNodes());
    edges.reserve(edges.size() + 2 * num_edges);
    for (size_t v = 0; v < degree.size(); ++v)
        adjacency[v].reserve(adjacency[v].size() + degree[v]);
}

EdgeId
FlowGraph::addEdge(NodeId from, NodeId to, double capacity)
{
    HELIX_ASSERT(from >= 0 && static_cast<size_t>(from) < numNodes());
    HELIX_ASSERT(to >= 0 && static_cast<size_t>(to) < numNodes());
    HELIX_ASSERT(capacity >= 0.0);
    EdgeId forward = static_cast<EdgeId>(edges.size());
    edges.push_back({from, to, capacity, capacity});
    edges.push_back({to, from, 0.0, 0.0});
    adjacency[from].push_back(forward);
    adjacency[to].push_back(forward + 1);
    if (capacity > capScale)
        capScale = capacity;
    return forward;
}

const std::vector<EdgeId> &
FlowGraph::outEdges(NodeId node) const
{
    HELIX_ASSERT(node >= 0 && static_cast<size_t>(node) < numNodes());
    return adjacency[node];
}

double
FlowGraph::flowOn(EdgeId forward_edge) const
{
    HELIX_ASSERT(forward_edge >= 0 &&
                 static_cast<size_t>(forward_edge) < edges.size());
    HELIX_ASSERT((forward_edge & 1) == 0);
    const Edge &e = edges[forward_edge];
    return e.originalCapacity - e.capacity;
}

void
FlowGraph::setEdgeCapacity(EdgeId forward_edge, double capacity)
{
    HELIX_ASSERT(forward_edge >= 0 &&
                 static_cast<size_t>(forward_edge) < edges.size());
    HELIX_ASSERT((forward_edge & 1) == 0);
    HELIX_ASSERT(capacity >= 0.0);
    Edge &e = edges[forward_edge];
    const double flow = e.originalCapacity - e.capacity;
    e.originalCapacity = capacity;
    e.capacity = capacity - flow;
    if (capacity > capScale)
        capScale = capacity;
    dirty.push_back(forward_edge);
}

void
FlowGraph::resetFlow()
{
    for (auto &e : edges)
        e.capacity = e.originalCapacity;
    dirty.clear();
}

double
FlowGraph::outCapacity(NodeId node) const
{
    double total = 0.0;
    for (EdgeId id : outEdges(node)) {
        if ((id & 1) == 0)
            total += edges[id].originalCapacity;
    }
    return total;
}

double
FlowGraph::netOutflow(NodeId node) const
{
    double value = 0.0;
    for (EdgeId id : outEdges(node)) {
        if ((id & 1) == 0)
            value += flowOn(id);
        else
            value -= flowOn(id ^ 1);
    }
    return value;
}

} // namespace flow
} // namespace helix
