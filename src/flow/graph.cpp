#include "flow/graph.h"

#include <algorithm>
#include <cstddef>
#include <limits>

#include "util/logging.h"

namespace helix {
namespace flow {

FlowGraph::FlowGraph(const std::vector<uint32_t> &degree)
{
    assign(degree);
}

void
FlowGraph::assign(const std::vector<uint32_t> &degree)
{
    firstArc.resize(degree.size() + 1);
    size_t total = 0;
    for (size_t v = 0; v < degree.size(); ++v) {
        firstArc[v] = static_cast<uint32_t>(total);
        total += degree[v];
        HELIX_ASSERT(total <= static_cast<size_t>(
                                  std::numeric_limits<ArcId>::max()));
    }
    firstArc[degree.size()] = static_cast<uint32_t>(total);
    nextFree.assign(firstArc.begin(), firstArc.end() - 1);
    arcCount = total;
    // addEdge() writes every arc and each forward arc's original
    // capacity; a residual arc's original stays 0, also in reused
    // storage.
    slots.resize(total + (total + 1) / 2);
    std::fill(slots.begin() + static_cast<std::ptrdiff_t>(total),
              slots.end(), Slot{});
    dirty.clear();
    edges = 0;
}

ArcId
FlowGraph::addEdge(NodeId from, NodeId to, double capacity)
{
    HELIX_ASSERT(from >= 0 && static_cast<size_t>(from) < numNodes());
    HELIX_ASSERT(to >= 0 && static_cast<size_t>(to) < numNodes());
    const Units units = toUnits(capacity);
    const uint32_t forward = nextFree[from]++;
    HELIX_ASSERT(forward < firstArc[from + 1]);
    const uint32_t reverse = nextFree[to]++;
    HELIX_ASSERT(reverse < firstArc[to + 1]);
    slots[forward].arc = Arc{to, reverse, units};
    slots[reverse].arc = Arc{from, forward | kResidualBit, 0};
    original(static_cast<ArcId>(forward)) = units;
    ++edges;
    return static_cast<ArcId>(forward);
}

void
FlowGraph::setEdgeCapacity(ArcId forward_arc, double capacity)
{
    HELIX_ASSERT(forward_arc >= 0 &&
                 static_cast<size_t>(forward_arc) < arcCount);
    HELIX_ASSERT(isForward(forward_arc));
    const Units units = toUnits(capacity);
    Arc &a = arc(forward_arc);
    a.residual = units - flowUnits(forward_arc);
    original(forward_arc) = units;
    dirty.push_back(forward_arc);
}

void
FlowGraph::resetFlow()
{
    for (ArcId a = 0; static_cast<size_t>(a) < arcCount; ++a)
        arc(a).residual = original(a);
    dirty.clear();
}

double
FlowGraph::outCapacity(NodeId node) const
{
    HELIX_ASSERT(node >= 0 && static_cast<size_t>(node) < numNodes());
    Units total = 0;
    for (ArcId a = arcBegin(node); a < arcEnd(node); ++a)
        total += originalUnits(a);
    return fromUnits(total);
}

double
FlowGraph::netOutflow(NodeId node) const
{
    HELIX_ASSERT(node >= 0 && static_cast<size_t>(node) < numNodes());
    Units value = 0;
    for (ArcId a = arcBegin(node); a < arcEnd(node); ++a) {
        if (isForward(a))
            value += flowUnits(a);
        else
            value -= flowUnits(twin(a));
    }
    return fromUnits(value);
}

size_t
EdgeList::addEdge(NodeId from, NodeId to, double capacity)
{
    HELIX_ASSERT(from >= 0 && static_cast<size_t>(from) < nodes);
    HELIX_ASSERT(to >= 0 && static_cast<size_t>(to) < nodes);
    list.push_back({from, to, capacity});
    return list.size() - 1;
}

FlowGraph
EdgeList::build(std::vector<ArcId> *forward) const
{
    std::vector<uint32_t> degree(nodes, 0);
    for (const Entry &e : list) {
        ++degree[static_cast<size_t>(e.from)];
        ++degree[static_cast<size_t>(e.to)];
    }
    FlowGraph graph(degree);
    if (forward)
        forward->clear();
    for (const Entry &e : list) {
        const ArcId a = graph.addEdge(e.from, e.to, e.capacity);
        if (forward)
            forward->push_back(a);
    }
    return graph;
}

} // namespace flow
} // namespace helix
