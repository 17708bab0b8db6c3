#include "cluster/profiler.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace helix {
namespace cluster {

Profiler::Profiler(const model::TransformerSpec &model_spec)
    : spec(model_spec)
{
    HELIX_ASSERT(spec.numLayers > 0);
}

int
Profiler::maxLayers(const NodeSpec &node) const
{
    // Weights may take at most half of usable VRAM so the other half
    // remains for KV-cache.
    double usable = kUsableVramFraction *
                    static_cast<double>(node.totalMemoryBytes());
    double weight_budget = usable * 0.5;
    // Capped before the cast: a parsed node may hold up to 2^63 bytes,
    // far more layers than an int counts.
    return static_cast<int>(
        std::min(weight_budget / static_cast<double>(spec.layerBytes()),
                 static_cast<double>(spec.numLayers)));
}

int
Profiler::hardMaxLayers(const NodeSpec &node) const
{
    double usable = kUsableVramFraction *
                    static_cast<double>(node.totalMemoryBytes());
    double kv_per_request = kPlanningContextLen *
                            spec.kvBytesPerTokenPerLayer();
    return static_cast<int>(
        std::min(usable / (static_cast<double>(spec.layerBytes()) +
                           kv_per_request),
                 static_cast<double>(spec.numLayers)));
}

int64_t
Profiler::kvCapacityBytes(const NodeSpec &node, int layers) const
{
    double usable = kUsableVramFraction *
                    static_cast<double>(node.totalMemoryBytes());
    double weights = static_cast<double>(spec.layerBytes()) * layers;
    double kv = usable - weights;
    return kv > 0 ? static_cast<int64_t>(kv) : 0;
}

int
Profiler::maxDecodeBatch(const NodeSpec &node, int layers) const
{
    if (layers <= 0)
        return 0;
    double kv_per_request = kPlanningContextLen *
                            spec.kvBytesPerTokenPerLayer() * layers;
    double kv = static_cast<double>(kvCapacityBytes(node, layers));
    return static_cast<int>(std::min(
        kv / kv_per_request, static_cast<double>(kMaxBatchRequests)));
}

Roofline
Profiler::roofline(const NodeSpec &node, int layers) const
{
    Roofline r;
    r.effFlops = node.totalTflops() * 1e12 * kMfu;
    r.effBw = node.totalMemBandwidthGBs() * 1e9 * kMemBwEfficiency;
    r.weightBytes = static_cast<double>(spec.layerBytes()) * layers;
    r.overheadS = kIterationOverheadS;
    return r;
}

double
Profiler::decodeIterationSeconds(const NodeSpec &node, int layers,
                                 int batch, double context_len) const
{
    HELIX_ASSERT(layers > 0 && batch > 0);
    const Roofline r = roofline(node, layers);
    double flops_per_token =
        spec.flopsPerTokenPerLayer() +
        spec.attentionFlopsPerToken(static_cast<int>(context_len));
    double compute = batch * layers * flops_per_token / r.effFlops;
    double kv_bytes = static_cast<double>(batch) * context_len *
                      spec.kvBytesPerTokenPerLayer() * layers;
    return r.seconds(compute, kv_bytes);
}

double
Profiler::decodeThroughput(const NodeSpec &node, int layers) const
{
    if (layers <= 0 || layers > hardMaxLayers(node))
        return 0.0;
    // Sustained decode batch: the reference microbatch, further
    // limited by KV headroom (a node whose weights crowd out KV can
    // only keep a few requests resident, halving again because
    // resident requests are spread across pipeline stages).
    int batch = std::min(kReferenceDecodeBatch,
                         std::max(maxDecodeBatch(node, layers) / 2, 1));
    if (batch <= 0)
        return 0.0;
    double t = decodeIterationSeconds(node, layers, batch,
                                      kPlanningContextLen);
    return static_cast<double>(batch) / t;
}

double
Profiler::linkTokensPerSecond(const LinkSpec &link,
                              double bytes_per_token) const
{
    HELIX_ASSERT(bytes_per_token > 0.0);
    return link.bytesPerSecond() / bytes_per_token;
}

double
Profiler::activationBytes() const
{
    return static_cast<double>(spec.activationBytesPerToken());
}

double
Profiler::throughputUpperBound(const ClusterSpec &cluster) const
{
    // Per the paper, placements respect the half-VRAM rule, so the
    // bound maximizes per-node layer-throughput over j <= maxLayers.
    double layer_tokens = 0.0;
    for (int i = 0; i < cluster.numNodes(); ++i) {
        const NodeSpec &node = cluster.node(i);
        double best = 0.0;
        int k = maxLayers(node);
        for (int j = 1; j <= k; ++j)
            best = std::max(best, decodeThroughput(node, j) * j);
        layer_tokens += best;
    }
    return layer_tokens / static_cast<double>(spec.numLayers);
}

} // namespace cluster
} // namespace helix
