/**
 * @file
 * Request scheduling (Sec. 5): per-request pipelines over the cluster
 * topology graph.
 *
 * The Helix scheduler walks the topology graph from the coordinator,
 * using one IWRR selector per vertex whose weights are the max-flow
 * edge flows, and masks nodes whose estimated KV-cache usage exceeds
 * the high-water mark (Sec. 5.2). Baseline schedulers (Swarm-style
 * throughput-proportional, random, shortest-queue-first, fixed
 * pipelines) share the same topology and interface.
 */

#ifndef HELIX_SCHEDULER_SCHEDULER_H
#define HELIX_SCHEDULER_SCHEDULER_H

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

    /** Requests queued + running at @p node. */
    virtual int queueLength(int node) const = 0;

    /** Recent tokens/s processed by @p node (EWMA). */
    virtual double recentThroughput(int node) const = 0;

    /** Actual KV-cache bytes in use at @p node. */
    virtual double kvUsedBytes(int node) const = 0;

    /**
     * Whether @p node is alive. The simulator's churn scenario marks
     * failed nodes dead; schedulers must not route through them.
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
 * connections of a placement with their max-flow values, plus the
 * per-node KV figures needed for admission control.
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

    struct OutEdge
    {
        int to = 0; // node index or kSink
        double flow = 0.0;
        double capacity = 0.0;
    };

    static constexpr int kSink = -2;

    /** Outgoing valid connections of a vertex (kCoordinator or node). */
    [[nodiscard]] const std::vector<OutEdge> &outEdges(int vertex) const;

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
    std::vector<std::vector<OutEdge>> edges; // [node + 1]; 0 = coord
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
     * Notification that the live topology changed (a node failed or
     * rejoined and the flow was re-solved on the surviving subgraph;
     * see TopologyManager). Implementations must atomically rebind to
     * @p topology — the Helix scheduler rebuilds its IWRR selectors
     * from the new edge flows — so routing proportions always match
     * the live cluster. Implementations copy what they keep, so
     * @p topology only needs to live for the duration of the call.
     * The simulator makes every scheduler call from its one event
     * loop, so implementations need no internal locking.
     */
    virtual void
    onTopologyChange(const Topology &topology)
    {
        (void)topology;
    }

  protected:
    /**
     * Copy @p topology into scheduler-owned storage and return the
     * copy, for onTopologyChange implementations: owning the
     * re-solved topology decouples the scheduler's lifetime from the
     * TopologyManager (typically simulator-owned) that produced it.
     * The copy is taken before the previously owned topology is
     * released, so @p topology may alias it (redundant swap).
     */
    const Topology &adoptTopology(const Topology &topology);

  private:
    std::unique_ptr<Topology> ownedTopo;
};

/** Shared admission bookkeeping: scheduler-side KV estimation.
 *  Scheduler-internal state, so coordinator-confined like its owner
 *  (every call site sits inside a RequestScheduler entry point). */
class KvEstimator
{
  public:
    KvEstimator(const Topology &topology, double avg_output_len,
                double high_water_mark);

    /** Estimated KV bytes @p request needs on @p stage's node. */
    [[nodiscard]] double requestBytes(const trace::Request &request,
                                      const PipelineStage &stage) const;

    /** Whether @p node can accept @p request's stage load. */
    [[nodiscard]] bool admits(int node, double bytes) const;

    /** Reserve estimated bytes for an admitted request. */
    void reserve(int node, double bytes);

    /** Release estimated bytes when a request finishes. */
    void release(int node, double bytes);

    [[nodiscard]] double estimatedUsage(int node) const
    {
        return usage[node];
    }

    /**
     * Rebind to a re-solved topology (same cluster, same node count).
     * Reserved usage survives: live requests keep their estimates.
     */
    void rebind(const Topology &topology);

  private:
    const Topology *topo;
    double avgOutputLen;
    double highWaterMark;
    std::vector<double> usage;
};

/** Configuration shared by the graph-walking schedulers. */
struct SchedulerConfig
{
    /** Output-length estimate for KV admission (Sec. 5.2). */
    double avgOutputLen = 232.0;
    /** Fraction of KV capacity usable before a node is masked. */
    double kvHighWaterMark = 0.95;
    /** RNG seed (random / throughput-proportional baselines). */
    uint64_t seed = 0x5c4ed;
};

/**
 * Helix's per-request pipeline scheduler: IWRR walk weighted by
 * max-flow edge flows with KV high-water-mark masking.
 */
class HelixScheduler : public RequestScheduler
{
  public:
    explicit HelixScheduler(const Topology &topology,
                            SchedulerConfig config = {});

    std::string name() const override { return "helix"; }

    std::optional<Pipeline> schedule(const trace::Request &request,
                                     const SchedulerContext &ctx)
        override;

    void onRequestAdmitted(const trace::Request &request,
                           const Pipeline &pipeline) override;

    void onRequestFinished(const trace::Request &request,
                           const Pipeline &pipeline) override;

    /** Swap in a re-solved topology: rebuilds every IWRR selector
     *  from the new edge flows, preserving KV reservations. */
    void onTopologyChange(const Topology &topology) override;

    /** Topology currently driving the IWRR weights (for tests). */
    [[nodiscard]] const Topology &topology() const { return *topo; }

  private:
    /** One IWRR walk attempt; nullopt when it dead-ends. */
    std::optional<Pipeline> tryWalk(const trace::Request &request,
                                    const SchedulerContext &ctx);

    /** Rebuild the per-vertex IWRR selectors from topo's flows. */
    void rebuildSelectors();

    const Topology *topo;
    SchedulerConfig cfg;
    KvEstimator kv;
    std::vector<IwrrScheduler> iwrr; // [vertex + 1]; 0 = coordinator
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
    WalkScheduler(const Topology &topology, WalkPolicy policy,
                  SchedulerConfig config = {});

    std::string name() const override;

    std::optional<Pipeline> schedule(const trace::Request &request,
                                     const SchedulerContext &ctx)
        override;

    /** Rebind to a re-solved topology (edges of dead nodes vanish;
     *  a recovered node's edges come back). */
    void onTopologyChange(const Topology &topology) override;

  private:
    const Topology *topo;
    WalkPolicy policy;
    SchedulerConfig cfg;
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
                           std::vector<Pipeline> pipelines,
                           SchedulerConfig config = {});

    std::string name() const override { return "fixed-rr"; }

    std::optional<Pipeline> schedule(const trace::Request &request,
                                     const SchedulerContext &ctx)
        override;

    void onRequestAdmitted(const trace::Request &request,
                           const Pipeline &pipeline) override;

    void onRequestFinished(const trace::Request &request,
                           const Pipeline &pipeline) override;

    /** Rebind KV capacities to a re-solved topology (a dead node's
     *  capacity drops to zero, masking pipelines through it). */
    void onTopologyChange(const Topology &topology) override;

    [[nodiscard]] size_t numPipelines() const { return fixed.size(); }

  private:
    const Topology *topo;
    std::vector<Pipeline> fixed;
    SchedulerConfig cfg;
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
