/**
 * @file
 * The simulator's network links: per-directed-link serialization (FIFO)
 * and propagation latency, which reproduces the congestion phenomena of
 * the scheduling case study (Sec. 6.7). A link can carry traffic only
 * if it is a connection of the placement (placement::isConnection:
 * partial inference plus the coordinator's rules), the set the runtime
 * topology's schedulers walk; churn and drift change flows, never the
 * placement. Link state holds one entry per link that
 * carried traffic, appended when an admission first routes over it and
 * found again by binary search in its source's list of links, so each
 * pipeline hop's link is resolved once, at admission, and nothing is
 * stored per connection. The statistics leave in (from, to) order,
 * the placement's slot order, not the order links were made.
 */

#ifndef HELIX_SIM_LINKS_H
#define HELIX_SIM_LINKS_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/cluster.h"
#include "placement/placement.h"
#include "placement/placement_graph.h"
#include "util/logging.h"

namespace helix {
namespace sim {

/** Per-directed-link congestion statistics (Sec. 6.7 case study). */
struct LinkStat
{
    int from = 0; // cluster::kCoordinator or node index
    int to = 0;
    long transfers = 0;
    double totalBytes = 0.0;
    double busySeconds = 0.0;
    double maxQueueDelayS = 0.0;
    double totalQueueDelayS = 0.0;
};

/** The links made so far, each with its serialization horizons. */
class Links
{
  public:
    /** Transfers above 16 activations of @p activation_bytes are bulk;
     *  @p collect_stats keeps a LinkStat per link. Both specs must
     *  outlive the links. */
    Links(const cluster::ClusterSpec &cluster_spec,
          const placement::ModelPlacement &placement_spec, int num_layers,
          double activation_bytes, bool collect_stats)
        : clusterRef(cluster_spec), placementRef(placement_spec),
          numLayers(num_layers), bySource(placement_spec.size() + 1),
          activationBytes(activation_bytes), collectStats(collect_stats)
    {
    }

    /** Index of the link (from, to), appending its entry on first
     *  use; HELIX_ASSERTs that the pair can carry traffic. */
    uint32_t
    index(int from, int to)
    {
        HELIX_ASSERT(from >= cluster::kCoordinator &&
                     static_cast<size_t>(from) + 1 < bySource.size());
        std::vector<Target> &out = bySource[static_cast<size_t>(from) + 1];
        auto it = std::lower_bound(
            out.begin(), out.end(), to,
            [](const Target &target, int key) { return target.to < key; });
        if (it != out.end() && it->to == to)
            return it->link;
        HELIX_ASSERT(placement::isConnection(placementRef, numLayers, from,
                                             to));
        const auto link = static_cast<uint32_t>(links.size());
        const cluster::LinkSpec &spec = clusterRef.link(from, to);
        links.push_back({0.0, 0.0, spec.bytesPerSecond(), spec.latencyS});
        if (collectStats)
            linkCounters.push_back(LinkStat{from, to});
        out.insert(it, Target{to, link});
        return link;
    }

    /** Account a transfer of @p bytes over @p link starting at @p now
     *  and return its delivery time (serialization + propagation). Kept
     *  out of line: inlined into finishBatch's item loop, it made
     *  scale-geo1k run_s about 8% slower (GCC 12, 4-vCPU host). */
    [[gnu::noinline]] double
    transfer(uint32_t link, double bytes, double now)
    {
        LinkState &ls = links[link];
        // Interactive messages (single-token activations, output
        // tokens) ride a priority channel so they do not serialize
        // behind bulk prompt transfers, mirroring how real transports
        // interleave small messages with large streams.
        bool bulk = bytes > 16.0 * activationBytes;
        double &busy_until =
            bulk ? ls.bulkBusyUntil : ls.interactiveBusyUntil;
        double start = std::max(now, busy_until);
        double tx = bytes / ls.bytesPerSecond;
        busy_until = start + tx;
        if (collectStats) {
            double queue_delay = start - now;
            LinkStat &stat = linkCounters[link];
            ++stat.transfers;
            stat.totalBytes += bytes;
            stat.busySeconds += tx;
            stat.maxQueueDelayS = std::max(stat.maxQueueDelayS, queue_delay);
            stat.totalQueueDelayS += queue_delay;
        }
        return start + tx + ls.latencyS;
    }

    /** The statistics of every link that carried a transfer, in
     *  (from, to) order, the coordinator (-1) first; empty unless
     *  collecting. */
    std::vector<LinkStat>
    stats() const
    {
        std::vector<LinkStat> out;
        if (!collectStats)
            return out;
        for (const std::vector<Target> &row : bySource) {
            for (const Target &target : row) {
                if (linkCounters[target.link].transfers > 0)
                    out.push_back(linkCounters[target.link]);
            }
        }
        return out;
    }

  private:
    /** A link of one source: its other end and its index in links. */
    struct Target
    {
        int to = 0;
        uint32_t link = 0;
    };

    struct LinkState
    {
        /** Serialization horizon for bulk (prompt-sized) transfers. */
        double bulkBusyUntil = 0.0;
        /**
         * Serialization horizon for interactive (token/activation)
         * messages, which use a separate priority channel and do not
         * queue behind multi-megabyte prompt transfers.
         */
        double interactiveBusyUntil = 0.0;
        /** Cached from ClusterSpec::link so the hot path is one load. */
        double bytesPerSecond = 0.0;
        double latencyS = 0.0;
    };
    static_assert(sizeof(LinkState) == 32, "link states stay 32 bytes");

    const cluster::ClusterSpec &clusterRef;
    const placement::ModelPlacement &placementRef;
    int numLayers;
    /** Per source endpoint (the coordinator first), its links made so
     *  far, sorted by target. */
    std::vector<std::vector<Target>> bySource;
    /** One entry per connection that carried traffic, in the order
     *  admissions first routed over them. */
    std::vector<LinkState> links;
    /** Statistics per entry of links, kept only when collecting. */
    std::vector<LinkStat> linkCounters;
    double activationBytes;
    bool collectStats;
};

} // namespace sim
} // namespace helix

#endif // HELIX_SIM_LINKS_H
