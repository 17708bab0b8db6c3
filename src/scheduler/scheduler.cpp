#include "scheduler/scheduler.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "util/logging.h"

namespace helix {
namespace scheduler {

namespace {

/** RNG seed of the random and throughput-proportional walkers. */
constexpr uint64_t kWalkSeed = 0x5c4ed;

} // namespace

bool
pipelineValid(const Pipeline &pipeline, int num_layers)
{
    if (pipeline.empty())
        return false;
    int at = 0;
    for (const PipelineStage &stage : pipeline) {
        if (stage.startLayer != at || stage.numLayers() <= 0)
            return false;
        at = stage.endLayer;
    }
    return at == num_layers;
}

Topology::Topology(const cluster::ClusterSpec &cluster,
                   const cluster::Profiler &profiler,
                   const placement::ModelPlacement &placement,
                   placement::PlacementGraph &graph)
    : table(graph.sharedConnectionTable())
{
    const int n = cluster.numNodes();
    layers = profiler.modelSpec().numLayers;
    kvPerTokenLayer = static_cast<double>(
        profiler.modelSpec().kvBytesPerTokenPerLayer());
    flowValue = graph.maxThroughput();

    placements.resize(n);
    kvCapacity.resize(n);
    for (int i = 0; i < n; ++i) {
        placements[i] = placement[i];
        kvCapacity[i] = placement[i].count > 0
                            ? static_cast<double>(profiler.kvCapacityBytes(
                                  cluster.node(i), placement[i].count))
                            : 0.0;
    }

    // Keep the connections with positive flow, vertex by vertex in row
    // order, so slots ascend over the whole list.
    const flow::FlowGraph &net = graph.graph();
    flowStart.reserve(static_cast<size_t>(n) + 2);
    flowStart.push_back(0);
    for (int from = cluster::kCoordinator; from < n; ++from) {
        const placement::ConnectionTable::Row out = table->row(from);
        for (size_t k = 0; k < out.size(); ++k) {
            const double f = net.flowOn(graph.connectionArc(from, k));
            if (f > 0.0) {
                flowing.push_back(
                    {out[k], out.firstSlot + static_cast<uint32_t>(k), f});
            }
        }
        flowStart.push_back(static_cast<uint32_t>(flowing.size()));
    }
}

placement::ConnectionTable::Row
Topology::outEdges(int vertex) const
{
    HELIX_ASSERT(vertex >= cluster::kCoordinator &&
                 vertex < numNodes());
    return table->row(vertex);
}

Topology::FlowEdges
Topology::flowEdges(int vertex) const
{
    HELIX_ASSERT(vertex >= cluster::kCoordinator && vertex < numNodes());
    const size_t row = static_cast<size_t>(vertex) + 1;
    return {flowing.data() + flowStart[row],
            flowing.data() + flowStart[row + 1]};
}

double
Topology::flow(uint32_t slot) const
{
    HELIX_ASSERT(slot < table->size());
    const auto it = std::lower_bound(
        flowing.begin(), flowing.end(), slot,
        [](const FlowEdge &edge, uint32_t key) { return edge.slot < key; });
    return it != flowing.end() && it->slot == slot ? it->flow : 0.0;
}

const placement::NodePlacement &
Topology::nodePlacement(int node) const
{
    HELIX_ASSERT(node >= 0 && node < numNodes());
    return placements[node];
}

double
Topology::kvCapacityBytes(int node) const
{
    HELIX_ASSERT(node >= 0 && node < numNodes());
    return kvCapacity[node];
}

double
Topology::kvBytesPerTokenPerLayer() const
{
    return kvPerTokenLayer;
}

KvEstimator::KvEstimator(const Topology &topology)
    : topo(&topology), usage(topology.numNodes(), 0.0)
{
}

double
KvEstimator::requestBytes(const trace::Request &request,
                          const PipelineStage &stage) const
{
    // The output length is unknown before the request finishes; the
    // scheduler estimates with the average output length (Sec. 5.2).
    // Active requests sit at uniformly distributed points of their
    // decode phase, so the expected current KV footprint is the
    // prompt plus half the average output.
    double tokens = static_cast<double>(request.promptLen) +
                    0.5 * kAvgOutputLen;
    return tokens * topo->kvBytesPerTokenPerLayer() *
           stage.numLayers();
}

bool
KvEstimator::admits(int node, double bytes) const
{
    return usage[node] + bytes <=
           kKvHighWaterMark * topo->kvCapacityBytes(node);
}

bool
KvEstimator::admitsWritten(int node, double written, double bytes) const
{
    return written + bytes <=
           kKvHighWaterMark * topo->kvCapacityBytes(node);
}

void
KvEstimator::reserve(int node, double bytes)
{
    usage[node] += bytes;
}

void
KvEstimator::release(int node, double bytes)
{
    usage[node] -= bytes;
    if (usage[node] < 0.0)
        usage[node] = 0.0;
}

HelixScheduler::HelixScheduler(const Topology &topology)
    : topo(&topology), kv(topology)
{
    HelixScheduler::onTopologyChange(topology);
}

void
HelixScheduler::onTopologyChange(const Topology &topology)
{
    HELIX_ASSERT(topology.numNodes() == topo->numNodes());
    // One IWRR selector per vertex; candidates are the targets of the
    // outgoing valid connections carrying positive flow, weighted by
    // that flow, in O(nodes + flow-carrying connections). Only the
    // flows are kept, so @p topology may be released as soon as this
    // returns.
    iwrr.assign(topology.numNodes() + 1, IwrrScheduler());
    for (int vertex = cluster::kCoordinator; vertex < topology.numNodes();
         ++vertex) {
        const Topology::FlowEdges out = topology.flowEdges(vertex);
        if (out.size() == 0)
            continue;
        std::vector<int> ids;
        std::vector<double> weights;
        ids.reserve(out.size());
        weights.reserve(out.size());
        for (const Topology::FlowEdge &edge : out) {
            ids.push_back(edge.target);
            weights.push_back(edge.flow);
        }
        iwrr[vertex + 1] = IwrrScheduler(std::move(ids),
                                         std::move(weights));
    }
}

const IwrrScheduler &
HelixScheduler::selector(int vertex) const
{
    HELIX_ASSERT(vertex >= cluster::kCoordinator &&
                 vertex < topo->numNodes());
    return iwrr[vertex + 1];
}

std::optional<Pipeline>
HelixScheduler::schedule(const trace::Request &request,
                         const SchedulerContext &ctx)
{
    // A single walk can dead-end mid-path while another first hop
    // would succeed; retry a few times before reporting congestion.
    for (int attempt = 0; attempt < 4; ++attempt) {
        auto pipeline = tryWalk(request, ctx);
        if (pipeline)
            return pipeline;
    }
    return std::nullopt;
}

std::optional<Pipeline>
HelixScheduler::tryWalk(const trace::Request &request,
                        const SchedulerContext &ctx)
{
    Pipeline pipeline;
    int vertex = cluster::kCoordinator;
    int at = 0;
    while (at < topo->numLayers()) {
        IwrrScheduler &selector = iwrr[vertex + 1];
        // Mask candidates that are the sink, dead, or full: past the
        // high-water mark by the estimate, which also counts requests
        // still upstream, and by the KV the node has written.
        std::vector<bool> &masked = maskScratch;
        masked.assign(selector.size(), false);
        bool any = false;
        for (size_t c = 0; c < selector.size(); ++c) {
            const int to = selector.candidates()[c];
            if (to == cluster::kCoordinator || !ctx.nodeAlive(to)) {
                masked[c] = true;
                continue;
            }
            PipelineStage stage{to, at, topo->nodePlacement(to).end()};
            const double bytes = kv.requestBytes(request, stage);
            if (!kv.admits(to, bytes) &&
                !kv.admitsWritten(to, ctx.kvUsedBytes(to), bytes)) {
                masked[c] = true;
                continue;
            }
            any = true;
        }
        if (!any)
            return std::nullopt;
        const int picked = selector.pick(&masked);
        if (picked < 0)
            return std::nullopt;
        PipelineStage stage{picked, at,
                            topo->nodePlacement(picked).end()};
        pipeline.push_back(stage);
        at = stage.endLayer;
        vertex = picked;
    }
    return pipeline;
}

void
HelixScheduler::onRequestAdmitted(const trace::Request &request,
                                  const Pipeline &pipeline)
{
    for (const PipelineStage &stage : pipeline)
        kv.reserve(stage.node, kv.requestBytes(request, stage));
}

void
HelixScheduler::onRequestFinished(const trace::Request &request,
                                  const Pipeline &pipeline)
{
    for (const PipelineStage &stage : pipeline)
        kv.release(stage.node, kv.requestBytes(request, stage));
}

WalkScheduler::WalkScheduler(const Topology &topology, WalkPolicy pol)
    : topo(&topology), policy(pol), rng(kWalkSeed)
{
}

std::string
WalkScheduler::name() const
{
    switch (policy) {
      case WalkPolicy::ThroughputProportional: return "swarm";
      case WalkPolicy::Random:                 return "random";
      case WalkPolicy::ShortestQueue:          return "shortest-queue";
    }
    return "?";
}

std::optional<Pipeline>
WalkScheduler::schedule(const trace::Request &request,
                        const SchedulerContext &ctx)
{
    (void)request;
    Pipeline pipeline;
    int vertex = cluster::kCoordinator;
    int at = 0;
    while (at < topo->numLayers()) {
        const placement::ConnectionTable::Row out =
            topo->outEdges(vertex);
        // Collect live compute-node candidates (skip the sink edge).
        std::vector<int> candidates;
        for (size_t e = 0; e < out.size(); ++e) {
            if (out[e] != cluster::kCoordinator && ctx.nodeAlive(out[e]))
                candidates.push_back(static_cast<int>(e));
        }
        if (candidates.empty())
            return std::nullopt;
        int chosen = -1;
        switch (policy) {
          case WalkPolicy::ThroughputProportional: {
            // Swarm routes to replicas proportionally to their
            // recently observed throughput.
            std::vector<double> weights;
            weights.reserve(candidates.size());
            for (int e : candidates) {
                weights.push_back(ctx.recentThroughput(out[e]) + 1.0);
            }
            size_t index = rng.nextWeighted(weights);
            chosen = candidates[index];
            break;
          }
          case WalkPolicy::Random: {
            chosen = candidates[rng.nextBounded(candidates.size())];
            break;
          }
          case WalkPolicy::ShortestQueue: {
            int best_len = std::numeric_limits<int>::max();
            for (int e : candidates) {
                int len = ctx.queueLength(out[e]);
                if (len < best_len) {
                    best_len = len;
                    chosen = e;
                }
            }
            break;
          }
        }
        HELIX_ASSERT(chosen >= 0);
        const int to = out[static_cast<size_t>(chosen)];
        PipelineStage stage{to, at, topo->nodePlacement(to).end()};
        pipeline.push_back(stage);
        at = stage.endLayer;
        vertex = to;
    }
    return pipeline;
}

FixedPipelineScheduler::FixedPipelineScheduler(
    const Topology &topology, std::vector<Pipeline> pipelines)
    : fixed(std::move(pipelines)), kv(topology)
{
}

std::optional<Pipeline>
FixedPipelineScheduler::schedule(const trace::Request &request,
                                 const SchedulerContext &ctx)
{
    if (fixed.empty())
        return std::nullopt;
    // Round-robin, skipping pipelines that fail KV admission or that
    // route through a dead node.
    for (size_t attempt = 0; attempt < fixed.size(); ++attempt) {
        const Pipeline &candidate =
            fixed[(nextIndex + attempt) % fixed.size()];
        bool ok = true;
        for (const PipelineStage &stage : candidate) {
            if (!ctx.nodeAlive(stage.node) ||
                !kv.admits(stage.node,
                           kv.requestBytes(request, stage))) {
                ok = false;
                break;
            }
        }
        if (ok) {
            nextIndex = (nextIndex + attempt + 1) % fixed.size();
            return candidate;
        }
    }
    return std::nullopt;
}

void
FixedPipelineScheduler::onRequestAdmitted(const trace::Request &request,
                                          const Pipeline &pipeline)
{
    for (const PipelineStage &stage : pipeline)
        kv.reserve(stage.node, kv.requestBytes(request, stage));
}

void
FixedPipelineScheduler::onRequestFinished(const trace::Request &request,
                                          const Pipeline &pipeline)
{
    for (const PipelineStage &stage : pipeline)
        kv.release(stage.node, kv.requestBytes(request, stage));
}

std::vector<Pipeline>
derivePipelines(const placement::ModelPlacement &placement,
                int num_layers)
{
    const int n = static_cast<int>(placement.size());
    std::vector<bool> used(n, false);
    std::vector<Pipeline> pipelines;
    for (;;) {
        Pipeline chain;
        std::vector<int> taken;
        int at = 0;
        while (at < num_layers) {
            int next = -1;
            for (int i = 0; i < n; ++i) {
                if (!used[i] && placement[i].count > 0 &&
                    placement[i].start == at) {
                    next = i;
                    break;
                }
            }
            if (next < 0)
                break;
            chain.push_back({next, at, placement[next].end()});
            used[next] = true;
            taken.push_back(next);
            at = placement[next].end();
        }
        if (at == num_layers && !chain.empty()) {
            pipelines.push_back(std::move(chain));
        } else {
            // Incomplete chain: release the nodes and stop searching.
            for (int i : taken)
                used[i] = false;
            break;
        }
    }
    return pipelines;
}

} // namespace scheduler
} // namespace helix
