/**
 * @file
 * Cluster topology: compute nodes, network links, and generators for
 * the three cluster setups evaluated in the paper (Sec. 6.2).
 *
 * A cluster contains one coordinator node and N compute nodes. Every
 * ordered pair of distinct endpoints has a directed link with a
 * bandwidth and a propagation latency, but links are not stored per
 * pair: a two-entry link-class table (intra-region, inter-region)
 * gives each pair its link from the endpoints' regions, and a sorted
 * table of explicit per-pair overrides (setLink, `cluster v1` files)
 * takes precedence. Storage grows with the node count plus the
 * overrides, never with (N+1)^2.
 */

#ifndef HELIX_CLUSTER_CLUSTER_H
#define HELIX_CLUSTER_CLUSTER_H

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/gpu.h"

namespace helix {
namespace cluster {

/** Index of a compute node within a cluster (0-based). */
using NodeIndex = int;

/** Sentinel index representing the coordinator. */
constexpr NodeIndex kCoordinator = -1;

/**
 * One compute node: one or more GPUs of a single type, aggregated into
 * a single logical device (paper Sec. 4.1: multi-GPU nodes use tensor
 * parallelism internally and are abstracted as one node).
 */
struct NodeSpec
{
    std::string name;
    GpuSpec gpu;
    int numGpus = 1;
    /** Region id used by the link generator. */
    int region = 0;

    /** Aggregate FP16 TFLOPs across the node's GPUs. */
    double totalTflops() const { return gpu.tflopsFp16 * numGpus; }

    /** Aggregate VRAM bytes across the node's GPUs. */
    int64_t totalMemoryBytes() const
    {
        return gpu.memoryBytes() * numGpus;
    }

    /** Aggregate memory bandwidth in GB/s. */
    double totalMemBandwidthGBs() const
    {
        return gpu.memBandwidthGBs * numGpus;
    }
};

/** A directed network link between two endpoints. */
struct LinkSpec
{
    /** Bandwidth in bits per second. */
    double bandwidthBps = 0.0;
    /** One-way propagation latency in seconds. */
    double latencyS = 0.0;

    double bytesPerSecond() const { return bandwidthBps / 8.0; }
};

/** An explicit link for one directed pair, overriding its class. */
struct LinkOverride
{
    NodeIndex from = kCoordinator;
    NodeIndex to = kCoordinator;
    LinkSpec link;
};

/**
 * A heterogeneous serving cluster: coordinator + compute nodes +
 * directed links (link classes by region plus per-pair overrides).
 */
class ClusterSpec
{
  public:
    /** Add a compute node; returns its index. */
    NodeIndex addNode(NodeSpec node);

    int numNodes() const { return static_cast<int>(nodes.size()); }

    const NodeSpec &node(NodeIndex index) const;

    /**
     * Override the directed link between @p from and @p to (either
     * may be kCoordinator, never both the same endpoint). Must be
     * called after all nodes are added; setUniformLinks() and
     * connectRegions() discard earlier overrides, and pairs of a
     * cluster given neither have zero links. Each call merges into
     * the sorted table; load many pairs at once with setLinks().
     */
    void setLink(NodeIndex from, NodeIndex to, LinkSpec link);

    /**
     * setLink() for a batch: the overrides are appended and the table
     * is sorted once, so loading N pairs costs O(N log N). A pair
     * given twice keeps its later link.
     */
    void setLinks(std::vector<LinkOverride> batch);

    /** The directed link between two distinct endpoints: the pair's
     *  override if it has one, else its region class. */
    const LinkSpec &link(NodeIndex from, NodeIndex to) const;

    /**
     * One bandwidth/latency for every pair (homogeneous network):
     * both link classes get the same link.
     */
    void setUniformLinks(double bandwidth_bps, double latency_s);

    /**
     * Links from region assignments: intra-region pairs get the intra
     * link, inter-region pairs get the inter link. The coordinator is
     * placed in @p coordinator_region.
     */
    void connectRegions(LinkSpec intra, LinkSpec inter,
                        int coordinator_region = 0);

    /** Region the coordinator lives in (set by connectRegions). */
    int coordinatorRegion() const { return coordRegion; }

    /** Link class of same-region pairs. */
    const LinkSpec &intraRegionLink() const { return intraLink; }

    /** Link class of cross-region pairs. */
    const LinkSpec &interRegionLink() const { return interLink; }

    /** Explicit per-pair overrides, sorted by (from, to). */
    const std::vector<LinkOverride> &linkOverrides() const
    {
        return overrides;
    }

    /** Sum of node compute capacities in TFLOPs. */
    double totalTflops() const;

    /** One-line summary, e.g. "4xA100 + 8xL4 + 12xT4 (24 nodes)". */
    std::string summary() const;

  private:
    /** Assert @p index is kCoordinator or a node index. */
    void checkEndpoint(NodeIndex index) const;

    /** Region of an endpoint (coordRegion for the coordinator). */
    int regionOf(NodeIndex index) const;

    std::vector<NodeSpec> nodes;
    /** Any link configured: link() needs it, addNode() forbids it. */
    bool linksSet = false;
    int coordRegion = 0;
    LinkSpec intraLink;
    LinkSpec interLink;
    /** Sorted by (from, to), one entry per pair. */
    std::vector<LinkOverride> overrides;
};

/** Generators for the paper's evaluated cluster configurations. */
namespace setups {

/** Gb/s to bits per second. */
constexpr double kGbps = 1e9;
/** Mb/s to bits per second. */
constexpr double kMbps = 1e6;

/**
 * Single-cluster setup (Sec. 6.3): 4 A100 + 8 L4 + 12 T4 nodes, all
 * links 10 Gb/s with ~1 ms latency.
 */
ClusterSpec singleCluster24();

/**
 * Geo-distributed setup (Sec. 6.4): three sub-clusters — (i) 4 A100,
 * (ii) 2 L4 + 8 T4, (iii) 6 L4 + 4 T4. Intra-cluster 10 Gb/s / 1 ms,
 * inter-cluster 100 Mb/s / 50 ms.
 */
ClusterSpec geoDistributed24();

/**
 * High GPU-heterogeneity setup (Sec. 6.5): 42 nodes with 7 types —
 * 4 A100, 6 V100, 8 L4, 10 T4, 4 2xL4, 6 2xT4, 4 4xT4; 10 Gb/s.
 */
ClusterSpec highHeterogeneity42();

/**
 * Small planner cluster used in Sec. 6.9 / Fig. 12: 4 L4 + 6 T4,
 * 10 Gb/s.
 */
ClusterSpec plannerCluster10();

} // namespace setups

} // namespace cluster
} // namespace helix

#endif // HELIX_CLUSTER_CLUSTER_H
