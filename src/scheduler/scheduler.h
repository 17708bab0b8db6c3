/**
 * @file
 * Request scheduling (Sec. 5): per-request pipelines over the cluster
 * topology graph.
 *
 * The Helix scheduler walks the topology graph from the coordinator,
 * using one IWRR selector per vertex whose weights are the max-flow
 * edge flows, and masks nodes whose KV-cache usage exceeds the
 * high-water mark (Sec. 5.2). Baseline schedulers (Swarm-style
 * throughput-proportional, random, shortest-queue-first, fixed
 * pipelines) share the same topology and interface.
 *
 * Every scheduler keeps the topology it was built with for layer
 * ranges and KV capacities; a max-flow re-solve under churn or drift
 * hands over new edge flows only (onTopologyChange).
 */

#ifndef HELIX_SCHEDULER_SCHEDULER_H
#define HELIX_SCHEDULER_SCHEDULER_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/profiler.h"
#include "placement/placement_graph.h"
#include "scheduler/iwrr.h"
#include "trace/trace.h"
#include "util/random.h"

namespace helix {
namespace scheduler {

/** One stage of a request's pipeline: which node runs which layers. */
struct PipelineStage
{
    int node = 0;
    int startLayer = 0;
    int endLayer = 0;

    [[nodiscard]] int numLayers() const { return endLayer - startLayer; }
};

/** A complete per-request pipeline covering layers [0, L). */
using Pipeline = std::vector<PipelineStage>;

/** Check a pipeline covers every layer exactly once and in order. */
[[nodiscard]] bool pipelineValid(const Pipeline &pipeline, int num_layers);

/**
 * Runtime feedback the simulator exposes to schedulers (queue depths,
 * recent throughput, actual KV occupancy).
 */
class SchedulerContext
{
  public:
    virtual ~SchedulerContext() = default;

    /**
     * Requests queued + running at @p node. Queued counts every item
     * delivered to the node by now, including delivered items the
     * simulator still holds in the node's inbox.
     */
    virtual int queueLength(int node) const = 0;

    /** Recent tokens/s processed by @p node (EWMA). */
    virtual double recentThroughput(int node) const = 0;

    /** Actual KV-cache bytes in use at @p node. */
    virtual double kvUsedBytes(int node) const = 0;

    /**
     * Whether @p node is alive. The simulator's churn scenario marks
     * failed nodes dead; schedulers must not route through them.
     * This is the only liveness signal schedulers get: a re-solved
     * topology carries flows, not liveness.
     */
    virtual bool
    nodeAlive(int node) const
    {
        (void)node;
        return true;
    }
};

/**
 * Topology shared by the graph-walking schedulers: the valid
 * connections of a placement (the placement graph's ConnectionTable,
 * shared, not copied), the connections among them that carry max flow
 * with their flows, plus the per-node KV figures needed for admission
 * control. Only flow-carrying connections are stored, per vertex in row
 * order, so a Topology takes O(nodes + flow-carrying connections) of
 * its own memory however many connections the table holds. The
 * coordinator id, cluster::kCoordinator, is both where walks start and
 * the sink they return to.
 */
class Topology
{
  public:
    /**
     * Build from a solved placement graph.
     * @param graph placement graph; maxThroughput() is invoked here
     *              if not already computed
     */
    Topology(const cluster::ClusterSpec &cluster,
             const cluster::Profiler &profiler,
             const placement::ModelPlacement &placement,
             placement::PlacementGraph &graph);

    /** Outgoing valid connections of a vertex (kCoordinator or node):
     *  targets ascending, the coordinator first. */
    [[nodiscard]] placement::ConnectionTable::Row outEdges(int vertex) const;

    /** A connection that carries flow. */
    struct FlowEdge
    {
        int target = 0; // cluster::kCoordinator or node index
        uint32_t slot = 0;
        double flow = 0.0; // tokens/s, positive
    };

    /** The flow-carrying connections of one vertex, in row order. */
    struct FlowEdges
    {
        const FlowEdge *first = nullptr;
        const FlowEdge *last = nullptr;
        [[nodiscard]] const FlowEdge *begin() const { return first; }
        [[nodiscard]] const FlowEdge *end() const { return last; }
        [[nodiscard]] size_t size() const
        {
            return static_cast<size_t>(last - first);
        }
    };

    /** Connections of @p vertex (kCoordinator or node) with positive
     *  flow, in the order of outEdges(vertex). */
    [[nodiscard]] FlowEdges flowEdges(int vertex) const;

    /** Max-flow value on the connection in @p slot (tokens/s): 0 for
     *  a connection that carries none. Binary search. */
    [[nodiscard]] double flow(uint32_t slot) const;

    /** Layer interval held by @p node. */
    [[nodiscard]] const placement::NodePlacement &nodePlacement(int node) const;

    /** KV capacity of @p node under its placement. */
    [[nodiscard]] double kvCapacityBytes(int node) const;

    /** KV bytes per (token, layer) of the served model. */
    [[nodiscard]] double kvBytesPerTokenPerLayer() const;

    [[nodiscard]] int numNodes() const
    {
        return static_cast<int>(placements.size());
    }
    [[nodiscard]] int numLayers() const { return layers; }

    /** Max-flow value of the underlying graph (tokens/s). */
    [[nodiscard]] double maxFlow() const { return flowValue; }

  private:
    std::shared_ptr<const placement::ConnectionTable> table;
    /** Vertex v's flow-carrying connections are
     *  flowing[flowStart[v + 1] .. flowStart[v + 2]); slots ascend
     *  over the whole array. */
    std::vector<uint32_t> flowStart;
    std::vector<FlowEdge> flowing;
    std::vector<placement::NodePlacement> placements;
    std::vector<double> kvCapacity;
    double kvPerTokenLayer = 0.0;
    int layers = 0;
    double flowValue = 0.0;
};

/** Interface implemented by all request schedulers. */
class RequestScheduler
{
  public:
    virtual ~RequestScheduler() = default;

    [[nodiscard]] virtual std::string name() const = 0;

    /**
     * Assign @p request a pipeline.
     * @return the pipeline, or nullopt if no node can accept the
     *         request right now (the coordinator should retry after
     *         some requests finish).
     */
    virtual std::optional<Pipeline> schedule(
        const trace::Request &request, const SchedulerContext &ctx) = 0;

    /** Notification that a scheduled request was admitted. */
    virtual void
    onRequestAdmitted(const trace::Request &request,
                      const Pipeline &pipeline)
    {
        (void)request;
        (void)pipeline;
    }

    /** Notification that a request finished and released its KV. */
    virtual void
    onRequestFinished(const trace::Request &request,
                      const Pipeline &pipeline)
    {
        (void)request;
        (void)pipeline;
    }

    /**
     * Notification that max-flow was re-solved (a node failed,
     * rejoined or drifted; see TopologyManager). A re-solve hands over
     * flows and nothing else: layer ranges and KV capacities stay
     * those of the topology the scheduler was built with, and
     * liveness comes from SchedulerContext::nodeAlive. The Helix
     * scheduler rebuilds its IWRR selectors from the new edge flows
     * and keeps no reference to @p topology, which only needs to live
     * for the duration of the call. The simulator makes every
     * scheduler call from its one event loop, so implementations need
     * no internal locking.
     */
    virtual void
    onTopologyChange(const Topology &topology)
    {
        (void)topology;
    }
};

/** Output-length estimate for KV admission (Sec. 5.2). */
inline constexpr double kAvgOutputLen = 232.0;

/** Fraction of a node's KV capacity the admitting schedulers
 *  (HelixScheduler, FixedPipelineScheduler) fill before masking it;
 *  Helix's only when the KV the node has written would pass it too. */
inline constexpr double kKvHighWaterMark = 0.95;

/** Shared admission bookkeeping: scheduler-side KV estimation.
 *  Scheduler-internal state, so coordinator-confined like its owner
 *  (every call site sits inside a RequestScheduler entry point). */
class KvEstimator
{
  public:
    explicit KvEstimator(const Topology &topology);

    /** Estimated KV bytes @p request needs on @p stage's node:
     *  (prompt + kAvgOutputLen / 2) tokens on each of its layers. */
    [[nodiscard]] double requestBytes(const trace::Request &request,
                                      const PipelineStage &stage) const;

    /** Whether @p node can accept @p request's stage load. */
    [[nodiscard]] bool admits(int node, double bytes) const;

    /** Whether @p node, holding @p written bytes of KV, can accept
     *  @p bytes more under the high-water mark. */
    [[nodiscard]] bool admitsWritten(int node, double written,
                                     double bytes) const;

    /** Reserve estimated bytes for an admitted request. */
    void reserve(int node, double bytes);

    /** Release estimated bytes when a request finishes. */
    void release(int node, double bytes);

    [[nodiscard]] double estimatedUsage(int node) const
    {
        return usage[node];
    }

  private:
    const Topology *topo;
    std::vector<double> usage;
};

/**
 * Helix's per-request pipeline scheduler: IWRR walk weighted by
 * max-flow edge flows with KV high-water-mark masking.
 */
class HelixScheduler : public RequestScheduler
{
  public:
    explicit HelixScheduler(const Topology &topology);

    std::string name() const override { return "helix"; }

    std::optional<Pipeline> schedule(const trace::Request &request,
                                     const SchedulerContext &ctx)
        override;

    void onRequestAdmitted(const trace::Request &request,
                           const Pipeline &pipeline) override;

    void onRequestFinished(const trace::Request &request,
                           const Pipeline &pipeline) override;

    /** Rebuild every IWRR selector from @p topology's edge flows;
     *  KV reservations are kept. */
    void onTopologyChange(const Topology &topology) override;

    /** IWRR selector of @p vertex (kCoordinator or a node): candidate
     *  ids are targets (nodes, or kCoordinator for the sink), weights
     *  their current edge flows. */
    [[nodiscard]] const IwrrScheduler &selector(int vertex) const;

  private:
    /** One IWRR walk attempt; nullopt when it dead-ends. */
    std::optional<Pipeline> tryWalk(const trace::Request &request,
                                    const SchedulerContext &ctx);

    /** Construction topology: layer ranges and KV capacities. */
    const Topology *topo;
    KvEstimator kv;
    std::vector<IwrrScheduler> iwrr; // [vertex + 1]; 0 = coordinator
    /** tryWalk's candidate mask, reused at every hop. */
    std::vector<bool> maskScratch;
};

/** How the baseline graph-walkers choose the next hop. */
enum class WalkPolicy
{
    /** Probability proportional to recent throughput (Swarm). */
    ThroughputProportional,
    /** Uniformly random candidate. */
    Random,
    /** Candidate with the shortest queue. */
    ShortestQueue,
};

/**
 * Baseline schedulers that walk the same topology but pick next hops
 * with simple local policies and no KV admission control.
 */
class WalkScheduler : public RequestScheduler
{
  public:
    WalkScheduler(const Topology &topology, WalkPolicy policy);

    std::string name() const override;

    std::optional<Pipeline> schedule(const trace::Request &request,
                                     const SchedulerContext &ctx)
        override;

  private:
    const Topology *topo;
    WalkPolicy policy;
    Rng rng;
};

/**
 * Fixed-pipeline round-robin (the separate-pipelines baseline):
 * disjoint pipelines derived from the placement, requests assigned
 * round-robin with KV admission per pipeline.
 */
class FixedPipelineScheduler : public RequestScheduler
{
  public:
    FixedPipelineScheduler(const Topology &topology,
                           std::vector<Pipeline> pipelines);

    std::string name() const override { return "fixed-rr"; }

    std::optional<Pipeline> schedule(const trace::Request &request,
                                     const SchedulerContext &ctx)
        override;

    void onRequestAdmitted(const trace::Request &request,
                           const Pipeline &pipeline) override;

    void onRequestFinished(const trace::Request &request,
                           const Pipeline &pipeline) override;

  private:
    std::vector<Pipeline> fixed;
    KvEstimator kv;
    size_t nextIndex = 0;
};

/**
 * Derive disjoint full-coverage pipelines from a placement by chaining
 * nodes whose intervals tile [0, L) (used with the SP planner).
 */
[[nodiscard]] std::vector<Pipeline> derivePipelines(
    const placement::ModelPlacement &placement, int num_layers);

} // namespace scheduler
} // namespace helix

#endif // HELIX_SCHEDULER_SCHEDULER_H
