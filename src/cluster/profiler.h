/**
 * @file
 * Analytic profiler: derives the quantities Helix obtains from
 * one-time hardware profiling (Sec. 4.3) — per-node inference
 * throughput T_j as a function of the number of layers held, KV-cache
 * capacity, and link token capacities — from datasheet numbers and a
 * roofline execution model.
 *
 * Execution model. One decode iteration over a batch of B requests on
 * a node holding j layers costs
 *
 *     t = max(compute, memory) + overhead
 *     compute = B * j * (2 * P_layer + attn(ctx)) / (TFLOPs * mfu)
 *     memory  = (j * layerBytes + B * ctx * kvBytes * j) / (BW * eff)
 *
 * i.e. weights and the KV-cache must be streamed from HBM once per
 * iteration while the arithmetic runs at a fraction (mfu) of peak.
 * Prompt processing is compute-bound over the full prompt length.
 *
 * Roofline is the one implementation of this model: the planner's
 * capacity estimates (decodeIterationSeconds) and the discrete-event
 * simulator's batch times both evaluate Roofline::seconds() on factors
 * built by Profiler::roofline(), which is what makes planner
 * predictions and simulated throughput commensurable (mirroring the
 * paper, where both come from the same profiling pass).
 */

#ifndef HELIX_CLUSTER_PROFILER_H
#define HELIX_CLUSTER_PROFILER_H

#include <algorithm>
#include <cstdint>

#include "cluster/cluster.h"
#include "model/transformer.h"

namespace helix {
namespace cluster {

/** Tunable efficiency parameters of the analytic cost model. */
struct CostModelParams
{
    /** Model FLOPs utilization for dense matmuls. */
    double mfu = 0.45;
    /** Achievable fraction of peak memory bandwidth. */
    double memBwEfficiency = 0.75;
    /** Max concurrent requests in one decode batch (vLLM-style cap). */
    int maxBatchRequests = 256;
    /**
     * Decode batch size assumed when profiling T_j for planning. In
     * pipelined operation a node receives tokens from upstream in
     * microbatches rather than as one standing batch, so sustained
     * per-iteration batches are far below the KV-capacity maximum.
     */
    int referenceDecodeBatch = 32;
    /** Per-iteration framework overhead in seconds. */
    double iterationOverheadS = 3e-3;
    /** Fraction of VRAM usable (rest is framework reserve). */
    double usableVramFraction = 0.9;
    /** Average context length assumed when sizing KV for planning. */
    double planningContextLen = 879.0; // avg prompt + avg output / 2
};

/**
 * The execution model's factors for one node holding a fixed number of
 * layers (Profiler::roofline), and the batch time they give.
 */
struct Roofline
{
    /** Effective FLOP/s: peak at the profiled MFU. */
    double effFlops = 0.0;
    /** Effective memory bandwidth, bytes/s. */
    double effBw = 0.0;
    /** Bytes of resident weights read once per batch. */
    double weightBytes = 0.0;
    /** Per-iteration framework overhead in seconds. */
    double overheadS = 0.0;

    /**
     * Seconds for one batch whose arithmetic takes @p compute_s at
     * effFlops and which reads @p kv_bytes of KV-cache besides the
     * weights: max(compute, memory) + overhead.
     */
    [[nodiscard]] double seconds(double compute_s, double kv_bytes) const
    {
        return std::max(compute_s, (weightBytes + kv_bytes) / effBw) +
               overheadS;
    }
};

/**
 * Computes node throughput and link capacity figures for one model on
 * one cluster's hardware.
 */
class Profiler
{
  public:
    explicit Profiler(const model::TransformerSpec &model_spec,
                      CostModelParams params = {});

    const model::TransformerSpec &modelSpec() const { return spec; }
    const CostModelParams &params() const { return cost; }

    /**
     * Max layers node can hold while keeping at least half of the
     * layer weight footprint free for KV-cache (the paper reserves
     * half of GPU memory for KV in Table 1 and sizes placements so
     * "enough VRAM for KV-cache" remains).
     */
    int maxLayers(const NodeSpec &node) const;

    /**
     * Absolute max layers that fit in VRAM with at least enough KV
     * left for one request. Placements beyond maxLayers() but within
     * this limit run with a shrunken KV-cache and correspondingly low
     * throughput (how the separate-pipelines baseline squeezes a model
     * onto few nodes).
     */
    int hardMaxLayers(const NodeSpec &node) const;

    /** Bytes of VRAM left for KV-cache when holding @p layers. */
    int64_t kvCapacityBytes(const NodeSpec &node, int layers) const;

    /**
     * Largest decode batch sustainable by KV capacity at the planning
     * context length (clamped by maxBatchRequests).
     */
    int maxDecodeBatch(const NodeSpec &node, int layers) const;

    /** The roofline factors of @p node holding @p layers layers. */
    Roofline roofline(const NodeSpec &node, int layers) const;

    /**
     * Wall-clock seconds for one decode iteration of @p batch requests
     * with average context @p context_len on @p layers layers.
     */
    double decodeIterationSeconds(const NodeSpec &node, int layers,
                                  int batch, double context_len) const;

    /**
     * T_j from the paper: steady-state decode tokens/second when the
     * node holds @p layers layers, at the KV-limited batch size.
     */
    double decodeThroughput(const NodeSpec &node, int layers) const;

    /**
     * Tokens/second a link can carry given a per-token payload of
     * @p bytes_per_token.
     */
    double linkTokensPerSecond(const LinkSpec &link,
                               double bytes_per_token) const;

    /** Payload bytes for an inter-stage activation transfer (1 token). */
    double activationBytes() const;

    /** Payload bytes for a coordinator token transfer. */
    double tokenBytes() const { return 4.0; }

    /**
     * The paper's planner upper bound: total cluster compute
     * throughput (layer-tokens/s at each node's best configuration)
     * divided by the layer count.
     */
    double throughputUpperBound(const ClusterSpec &cluster) const;

  private:
    model::TransformerSpec spec;
    CostModelParams cost;
};

} // namespace cluster
} // namespace helix

#endif // HELIX_CLUSTER_PROFILER_H
