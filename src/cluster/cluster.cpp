#include "cluster/cluster.h"

#include <algorithm>
#include <cstddef>
#include <sstream>

#include "util/logging.h"

namespace helix {
namespace cluster {

namespace {

bool
pairBefore(const LinkOverride &a, const LinkOverride &b)
{
    return a.from != b.from ? a.from < b.from : a.to < b.to;
}

} // namespace

NodeIndex
ClusterSpec::addNode(NodeSpec node)
{
    HELIX_ASSERT(!linksSet);
    nodes.push_back(std::move(node));
    return static_cast<NodeIndex>(nodes.size() - 1);
}

const NodeSpec &
ClusterSpec::node(NodeIndex index) const
{
    HELIX_ASSERT(index >= 0 && index < numNodes());
    return nodes[index];
}

void
ClusterSpec::checkEndpoint(NodeIndex index) const
{
    HELIX_ASSERT(index >= kCoordinator && index < numNodes());
}

int
ClusterSpec::regionOf(NodeIndex index) const
{
    return index == kCoordinator ? coordRegion : nodes[index].region;
}

void
ClusterSpec::setLink(NodeIndex from, NodeIndex to, LinkSpec link_spec)
{
    setLinks({LinkOverride{from, to, link_spec}});
}

void
ClusterSpec::setLinks(std::vector<LinkOverride> batch)
{
    // Overrides on a cluster without link classes sit on zero links.
    linksSet = true;
    for (const LinkOverride &entry : batch) {
        checkEndpoint(entry.from);
        checkEndpoint(entry.to);
        HELIX_ASSERT(entry.from != entry.to);
    }
    // Stable sorts and merge keep equal pairs in call order, so
    // collapsing each run to its last entry makes the later link win.
    std::stable_sort(batch.begin(), batch.end(), pairBefore);
    const auto old_size = static_cast<std::ptrdiff_t>(overrides.size());
    overrides.insert(overrides.end(), batch.begin(), batch.end());
    std::inplace_merge(overrides.begin(), overrides.begin() + old_size,
                       overrides.end(), pairBefore);
    size_t kept = 0;
    for (size_t i = 0; i < overrides.size(); ++i) {
        if (i + 1 < overrides.size() &&
            !pairBefore(overrides[i], overrides[i + 1]))
            continue; // A later entry for the same pair wins.
        overrides[kept++] = overrides[i];
    }
    overrides.resize(kept);
}

const LinkSpec &
ClusterSpec::link(NodeIndex from, NodeIndex to) const
{
    HELIX_ASSERT(linksSet);
    checkEndpoint(from);
    checkEndpoint(to);
    HELIX_ASSERT(from != to);
    if (!overrides.empty()) {
        const LinkOverride key{from, to, {}};
        auto it = std::lower_bound(overrides.begin(), overrides.end(),
                                   key, pairBefore);
        if (it != overrides.end() && it->from == from && it->to == to)
            return it->link;
    }
    return regionOf(from) == regionOf(to) ? intraLink : interLink;
}

void
ClusterSpec::setUniformLinks(double bandwidth_bps, double latency_s)
{
    intraLink = LinkSpec{bandwidth_bps, latency_s};
    interLink = intraLink;
    overrides.clear();
    linksSet = true;
}

void
ClusterSpec::connectRegions(LinkSpec intra, LinkSpec inter,
                            int coordinator_region)
{
    coordRegion = coordinator_region;
    intraLink = intra;
    interLink = inter;
    overrides.clear();
    linksSet = true;
}

double
ClusterSpec::totalTflops() const
{
    double total = 0.0;
    for (const auto &n : nodes)
        total += n.totalTflops();
    return total;
}

std::string
ClusterSpec::summary() const
{
    // Count nodes per (gpu type, count) signature, preserving insert
    // order for readability.
    std::vector<std::pair<std::string, int>> groups;
    for (const auto &n : nodes) {
        std::string key = (n.numGpus > 1)
                              ? std::to_string(n.numGpus) + "x" + n.gpu.name
                              : n.gpu.name;
        bool found = false;
        for (auto &[name, count] : groups) {
            if (name == key) {
                ++count;
                found = true;
            }
        }
        if (!found)
            groups.push_back({key, 1});
    }
    std::ostringstream out;
    for (size_t i = 0; i < groups.size(); ++i) {
        if (i > 0)
            out << " + ";
        out << groups[i].second << "x" << groups[i].first;
    }
    out << " (" << numNodes() << " nodes)";
    return out.str();
}

namespace setups {

namespace {

void
addNodes(ClusterSpec &cluster, const GpuSpec &gpu, int count,
         int num_gpus, int region)
{
    for (int i = 0; i < count; ++i) {
        NodeSpec node;
        std::ostringstream name;
        if (num_gpus > 1)
            name << num_gpus << "x";
        name << gpu.name << "-r" << region << "-" << i;
        node.name = name.str();
        node.gpu = gpu;
        node.numGpus = num_gpus;
        node.region = region;
        cluster.addNode(std::move(node));
    }
}

} // namespace

ClusterSpec
singleCluster24()
{
    ClusterSpec cluster;
    addNodes(cluster, gpus::a100_40(), 4, 1, 0);
    addNodes(cluster, gpus::l4(), 8, 1, 0);
    addNodes(cluster, gpus::t4(), 12, 1, 0);
    cluster.setUniformLinks(10 * kGbps, 1e-3);
    return cluster;
}

ClusterSpec
geoDistributed24()
{
    ClusterSpec cluster;
    addNodes(cluster, gpus::a100_40(), 4, 1, 0);
    addNodes(cluster, gpus::l4(), 2, 1, 1);
    addNodes(cluster, gpus::t4(), 8, 1, 1);
    addNodes(cluster, gpus::l4(), 6, 1, 2);
    addNodes(cluster, gpus::t4(), 4, 1, 2);
    cluster.connectRegions({10 * kGbps, 1e-3}, {100 * kMbps, 50e-3}, 0);
    return cluster;
}

ClusterSpec
highHeterogeneity42()
{
    ClusterSpec cluster;
    addNodes(cluster, gpus::a100_40(), 4, 1, 0);
    addNodes(cluster, gpus::v100(), 6, 1, 0);
    addNodes(cluster, gpus::l4(), 8, 1, 0);
    addNodes(cluster, gpus::t4(), 10, 1, 0);
    addNodes(cluster, gpus::l4(), 4, 2, 0);
    addNodes(cluster, gpus::t4(), 6, 2, 0);
    addNodes(cluster, gpus::t4(), 4, 4, 0);
    cluster.setUniformLinks(10 * kGbps, 1e-3);
    return cluster;
}

ClusterSpec
plannerCluster10()
{
    ClusterSpec cluster;
    addNodes(cluster, gpus::l4(), 4, 1, 0);
    addNodes(cluster, gpus::t4(), 6, 1, 0);
    cluster.setUniformLinks(10 * kGbps, 1e-3);
    return cluster;
}

} // namespace setups

} // namespace cluster
} // namespace helix
