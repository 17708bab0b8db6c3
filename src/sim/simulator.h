/**
 * @file
 * Discrete-event simulator for distributed LLM serving.
 *
 * This is the C++ equivalent of the 14k-LoC Python simulator the paper
 * uses for its geo-distributed and high-heterogeneity experiments
 * (Sec. 6.1, validated against the prototype to <5% error). It models:
 *
 *  - per-node dynamic best-effort batching (a node starts a new batch
 *    from everything that arrived while the previous batch ran);
 *  - prompt and decode phases with the roofline cost model from
 *    cluster::Profiler (weight reads, KV reads, FLOPs);
 *  - KV-cache occupancy per node with a swap penalty when a node is
 *    oversubscribed (offloading to host memory "significantly harms
 *    throughput", Sec. 5.2);
 *  - network transfers with per-directed-link serialization (FIFO) and
 *    propagation latency (sim/links.h);
 *  - the coordinator loop: per-request pipelines, one round trip per
 *    generated token, admission retry when the scheduler finds no
 *    pipeline;
 *  - node churn mid-run: an ordered schedule of fail/recover events.
 *    A failed node's work is dropped and every affected request is
 *    rescheduled around it; a recovered node rejoins with empty KV
 *    and queue. On every event the simulator re-solves max-flow on
 *    the surviving subgraph (scheduler::TopologyManager) and hands
 *    the fresh flows to the scheduler, so routing proportions always
 *    match the live cluster (Sec. 5 semantics). Schedulers learn
 *    liveness from SchedulerContext::nodeAlive, which flips before
 *    the re-solve.
 *
 * Every event, arrivals included, goes through one monotone radix
 * queue (sim/event_queue.h) of small trivially-copyable tagged-union
 * events (no std::function, no per-event heap allocation), popped in
 * eventBefore order; batch vectors are owned by the node states and
 * reused across iterations. Work sent to a node waits in the node's
 * inbox (sim/inbox.h) until a wake or a batch's end delivers it, and
 * then stays there, as the node's queue, until a batch takes it.
 *
 * The batch handlers touch only flat per-run state: admitted
 * pipelines live in one stage table (sim/stage_table.h); the few
 * request fields the handlers read sit in a parallel RequestHot
 * array, apart from the trace record; and every per-node and
 * per-model cost factor is computed once, at construction, with the
 * cost model's own floating-point expressions.
 */

#ifndef HELIX_SIM_SIMULATOR_H
#define HELIX_SIM_SIMULATOR_H

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/profiler.h"
#include "placement/placement.h"
#include "sim/event_queue.h"
#include "sim/inbox.h"
#include "sim/links.h"
#include "sim/stage_table.h"
#include "scheduler/fair_share.h"
#include "scheduler/scheduler.h"
#include "trace/trace.h"
#include "util/stats.h"

namespace helix {

namespace scheduler {
class TopologyManager;
} // namespace scheduler

namespace sim {

/** One scheduled topology change of the churn scenario. */
struct ChurnEvent
{
    enum class Kind : uint8_t
    {
        /** The node fails: work dropped, requests restart around it. */
        Fail,
        /** The node rejoins with empty KV and queue. */
        Recover,
        /**
         * Observed-throughput drift shrank the node's capacity. Never
         * appears in schedules — only in SimMetrics::FlowEvent logs
         * of drift-triggered re-solves.
         */
        Drift,
    };

    Kind kind = Kind::Fail;
    int node = -1;
    double atSeconds = 0.0;
};

/** Human-readable name of a ChurnEvent::Kind ("fail"/"recover"). */
const char *toString(ChurnEvent::Kind kind);

/**
 * How a topology re-solve happened: a warm-start incremental repair of
 * the persistent flow network after a liveness event, or a
 * drift-triggered capacity shrink (a node's observed EWMA throughput
 * fell below its planned flow).
 */
enum class ResolveKind : uint8_t
{
    Repair,
    Drift,
};

/** Human-readable name of a ResolveKind ("repair"/"drift"). */
const char *toString(ResolveKind kind);

/**
 * Simulation parameters. A node batches at most
 * cluster::CostModelParams::maxBatchRequests requests per iteration,
 * the planner's cap.
 */
struct SimConfig
{
    /** Seconds of warmup excluded from metrics. */
    double warmupSeconds = 30.0;
    /** Measurement window length after warmup. */
    double measureSeconds = 300.0;
    /**
     * Max tokens per iteration (vLLM's max_num_batched_tokens with
     * Sarathi-style chunked prefill): caps how much prompt work one
     * iteration can absorb, bounding the queueing delay decode tokens
     * experience behind long prompts.
     */
    int maxBatchTokens = 512;
    /** Collect per-link congestion statistics. */
    bool collectLinkStats = false;
    /**
     * Churn event schedule: fail and recover events applied in time
     * order. A failed node's queued and in-flight work is dropped,
     * affected requests restart from the prompt through the
     * scheduler, and schedulers see the node as dead
     * (SchedulerContext::nodeAlive). Each event triggers a warm-start
     * max-flow repair on the surviving subgraph whose flows are
     * handed to the scheduler; the resulting flow values are logged in
     * SimMetrics::flowEvents. Events with out-of-range nodes or
     * negative times are ignored.
     */
    std::vector<ChurnEvent> churnEvents;
    /**
     * Drift-triggered re-solve threshold, as a fraction in (0, 1):
     * after a batch completes on a node whose speed estimate has
     * matured (cumulative busy time >=
     * scheduler::kThroughputEwmaTauS), the observed decode throughput
     * is the profiled capacity scaled by the node's speed EWMA
     * (modeled / actual batch duration). When that observed throughput
     * falls below
     * plannedFlow * (1 - driftThreshold), the node's compute capacity
     * is shrunk to the observed rate and the topology re-solved,
     * shifting routing weight away from the straggler. 0 disables
     * drift detection.
     */
    double driftThreshold = 0.0;
    /**
     * Per-node batch-duration multipliers modeling degradation the
     * profiler did not see (thermal throttling, co-tenant
     * interference): entries > 1 slow the node down. Empty or
     * missing entries mean 1.0. Scenario/test hook for exercising
     * the drift trigger.
     */
    std::vector<double> nodeSlowdown;
    /**
     * No-op: the simulator has one event loop and ignores this field.
     * It remains only because the pinned benchmark harness assigns
     * it; delete it together with that assignment.
     */
    int simThreads = 1;
    /**
     * Tenant classes of the admission queue
     * (scheduler::FairShareController). Every run admits through one
     * queue; arbitration and preemption happen only with two or more
     * tenants, so zero or one tenant admits in arrival order.
     */
    std::vector<scheduler::Tenant> tenants;
    /** Fair-share starvation tolerance in [0, 1] (see
     *  FairShareController::Config). */
    double starvationTolerance = 0.8;
    /** Continuous starvation seconds before an over-share tenant's
     *  newest in-flight request is preempted; negative disables
     *  preemption. */
    double preemptionTimeoutS = 5.0;
};

/** Aggregate metrics of one simulation run. */
struct SimMetrics
{
    /** Decode tokens generated per second in the window. */
    double decodeThroughput = 0.0;
    /** Prompt tokens processed per second in the window. */
    double promptThroughput = 0.0;
    /**
     * Per-request prompt latency (arrival to first token), seconds.
     * Only requests whose arrival AND first token both fall inside the
     * measurement window contribute, so warmup queueing cannot leak
     * into the distribution.
     */
    StatAccumulator promptLatency;
    /**
     * Per-request average seconds per decode token. Only requests
     * whose first token AND completion both fall inside the window
     * contribute.
     */
    StatAccumulator decodeLatency;
    long requestsArrived = 0;
    long requestsAdmitted = 0;
    long requestsCompleted = 0;
    long requestsRejected = 0;
    /** Requests restarted because a node failed mid-run. */
    long requestsRestarted = 0;
    /** Requests preempted by fair-share arbitration (restarted from
     *  the prompt once their tenant is back within share). */
    long requestsPreempted = 0;
    /**
     * One entry per applied topology re-solve: scheduled churn events
     * (fail/recover) and drift-triggered capacity shrinks, with the
     * re-solved max-flow value of the live topology right after the
     * event took effect.
     */
    struct FlowEvent
    {
        double time = 0.0;
        int node = -1;
        ChurnEvent::Kind kind = ChurnEvent::Kind::Fail;
        /** Max-flow of the live topology after the event, tokens/s. */
        double flow = 0.0;
        /** How the re-solve happened: repair | drift. */
        ResolveKind resolveKind = ResolveKind::Repair;
    };
    std::vector<FlowEvent> flowEvents;
    long decodeTokensInWindow = 0;
    long promptTokensInWindow = 0;
    double simulatedSeconds = 0.0;
    /** Mean per-node KV utilization sampled at batch boundaries. */
    double avgKvUtilization = 0.0;
    /**
     * Per-link statistics (SimConfig::collectLinkStats), one entry per
     * link that carried a transfer, in (from, to) order with the
     * coordinator (-1) first. Only pairs able to carry traffic have
     * links, the connections of the placement under partial inference
     * (sim/links.h): coordinator -> holder of layer 0, holder of the
     * last layer -> coordinator, and node pairs whose layer ranges
     * chain.
     */
    std::vector<LinkStat> linkStats;

    /** Per-node execution statistics. */
    struct NodeStat
    {
        long batches = 0;
        long itemsProcessed = 0;
        long tokensProcessed = 0;
        double busySeconds = 0.0;
        double kvUtilization = 0.0;
    };
    std::vector<NodeStat> nodeStats;

    /**
     * Per-tenant serving statistics. Counted in every run, but kept
     * only when arbitration is active (two or more
     * SimConfig::tenants); empty otherwise.
     */
    struct TenantStat
    {
        std::string name;
        double weight = 1.0;
        long requestsArrived = 0;
        long requestsAdmitted = 0;
        long requestsCompleted = 0;
        long requestsRejected = 0;
        long requestsPreempted = 0;
        /** Decode tokens generated inside the measurement window. */
        long decodeTokensInWindow = 0;
        /** decodeTokensInWindow / measured seconds. */
        double decodeThroughput = 0.0;
        /** Declared SLOs (0 = none declared). */
        double sloTtftS = 0.0;
        double sloTpotS = 0.0;
        /** SLO attainment over in-window samples (same windowing as
         *  promptLatency / decodeLatency); -1 = no SLO declared or no
         *  samples. */
        double ttftAttainment = -1.0;
        double tpotAttainment = -1.0;
        long ttftSamples = 0;
        long ttftMet = 0;
        long tpotSamples = 0;
        long tpotMet = 0;
    };
    std::vector<TenantStat> tenantStats;
    /**
     * Jain fairness index over weight-normalized per-tenant decode
     * throughput x_t = decodeThroughput_t / weight_t:
     * J = (sum x)^2 / (n * sum x^2), 1.0 = perfectly fair. 0 when
     * tenancy is inactive or no tenant produced tokens.
     */
    double jainIndex = 0.0;
};

/**
 * Minimum propagation latency over every directed pair of distinct
 * endpoints of @p cluster_spec, the coordinator's included, not just
 * the links that can carry traffic: the fastest any control-plane
 * message can land (preemption); infinity without pairs. A pair's link
 * is its override, else its region class, so this takes every override
 * and each class that keeps at least one pair without one: O(nodes log
 * nodes + overrides) instead of a ClusterSpec::link call per pair.
 * NaN latencies are skipped, as std::min over the pairs skips them.
 */
[[nodiscard]] double minLinkLatency(const cluster::ClusterSpec &cluster_spec);

/**
 * The simulator. One instance runs one experiment: a cluster with a
 * placement, a scheduler, and an arrival trace.
 */
class ClusterSimulator : public scheduler::SchedulerContext
{
  public:
    ClusterSimulator(const cluster::ClusterSpec &cluster,
                     const cluster::Profiler &profiler,
                     const placement::ModelPlacement &placement,
                     scheduler::RequestScheduler &scheduler,
                     SimConfig config = {});

    ~ClusterSimulator();

    /** Run to completion of the measurement window. Call at most
     *  once per instance. */
    SimMetrics run(const std::vector<trace::Request> &requests);

    // --- SchedulerContext (feedback views) ---
    int queueLength(int node) const override;
    double recentThroughput(int node) const override;
    double kvUsedBytes(int node) const override;
    bool nodeAlive(int node) const override;

  private:
    /** A node's serving state. Its queue is the delivered prefix of
     *  its inbox (InboxPool). */
    struct NodeState
    {
        /** Items of the batch currently running (reused storage). */
        std::vector<WorkItem> running;
        /** The running batch's actual duration, and the duration the
         *  cost model alone predicts, before unprofiled multipliers
         *  (nodeSlowdown, KV paging): model/actual is the drift
         *  trigger's speed sample. */
        double batchSeconds = 0.0;
        double modelSeconds = 0.0;
        bool dead = false;
        double kvUsed = 0.0;
        double kvCapacity = 0.0;
        int layersHeld = 0;
        double ewmaThroughput = 0.0;
        /** Sim time of the last EWMA update; recentThroughput decays
         *  the estimate by the elapsed time since then, so idle or
         *  dead nodes do not keep reporting their last busy rate. */
        double ewmaUpdatedAt = 0.0;
        /**
         * Speed EWMA for the drift trigger: modeled / actual batch
         * duration, 1.0 at profiled speed, < 1 when throttled. Kept
         * separate from ewmaThroughput, whose blended prompt+decode
         * token rate is not comparable to planned (decode) flow.
         */
        double ewmaSpeed = 1.0;
        /**
         * Liveness epoch: bumped when the node fails, so a BatchDone
         * scheduled before the failure is recognized as stale even if
         * the node has since recovered and started new batches.
         */
        uint32_t epoch = 0;
        int inFlight = 0;
        /** KV-utilization sampling for metrics. */
        double utilSum = 0.0;
        long utilSamples = 0;
        long batches = 0;
        long itemsProcessed = 0;
        long tokensProcessed = 0;
        double busySeconds = 0.0;
    };

    /** A node's cost-model factors, computed once at construction. */
    struct NodeCost
    {
        /** The profiler's batch-time factors for the layers held. */
        cluster::Roofline roofline;
        /** Propagation latency of the coordinator -> node link: how
         *  long a KvRelease takes to land. */
        double coordLatencyS = 0.0;
    };

    /** The request fields the batch handlers and the purge read,
     *  parallel to requests. */
    struct RequestHot
    {
        /** Copied from the trace request. */
        int promptLen = 0;
        int generated = 0;
        uint32_t epoch = 0;
        /** The request's range of stages: [firstStage, firstStage +
         *  numStages); numStages is 0 while it holds none. */
        uint32_t firstStage = 0;
        uint32_t numStages = 0;
    };

    /** A request's serving state, parallel to the caller's trace
     *  (traceRequests), which it does not copy. */
    struct RequestState
    {
        /** Index in links of the coordinator -> first stage hop,
         *  resolved at admission. */
        uint32_t firstLink = 0;
        /** Ever torn down by node churn: excluded from latency
         *  samples, and regenerated work is not recounted. */
        bool restartedEver = false;
        /** Prompt completion already counted toward throughput. */
        bool promptCounted = false;
        /** High-water mark of generated across restarts: only tokens
         *  beyond it are new output (not churn regeneration). */
        int peakGenerated = 0;
        double firstTokenTime = -1.0;
        /** A Preempt event for this request is in flight; suppresses
         *  duplicate victim selection until it lands. */
        bool preemptScheduled = false;
    };

    /** Push a typed event at absolute time @p when. */
    void scheduleEvent(double when, Event event);

    /** Dispatch one popped event to its kind's handler. */
    void dispatch(const Event &event);

    /**
     * Admit queued requests through the scheduler, in the admission
     * queue's order, until the queue is empty or held, the scheduler
     * refuses, or the engine cap binds; then run the starvation
     * sweep.
     */
    void tryAdmit();

    /** Tenant class of a request (0 when outside the admission
     *  queue's tenant range). */
    int tenantOf(int request_index) const;

    /** Starvation sweep: when the controller names a victim class,
     *  schedule a Preempt event for its newest in-flight request one
     *  preemption delay from now. */
    void maybeSchedulePreempt();

    /** Apply a Preempt event (epoch-safe; stale events no-op). */
    void applyPreempt(const Event &event);

    /**
     * Tear an admitted request back down to the admission queue: the
     * shared core of churn restarts and preemption. Releases exactly
     * Stage::kvWritten at every live pipeline stage (skipping
     * @p skip_node, the failed node whose state was wiped wholesale;
     * -1 skips none), notifies the scheduler, frees its stage range,
     * bumps the request epoch so in-flight work and messages go
     * stale, and resets generation progress (peakGenerated keeps
     * regenerated tokens from double-counting).
     */
    void restartRequest(int request_index, int skip_node);

    /** Drop queued work items whose request epoch went stale (after
     *  restartRequest), fixing up per-node inFlight. */
    void purgeStaleQueuedWork();

    /**
     * Take @p pipeline as admitted request @p request_index's route:
     * copy it into a free stage range (or a new one at the table's
     * end) with its hop links resolved and zero KV written, count the
     * admission for its tenant @p tenant, and ship the prompt to the
     * first stage.
     */
    void admit(int request_index, int tenant,
               const scheduler::Pipeline &pipeline);

    /** Show the scheduler request @p request_index's pipeline for the
     *  last time (onRequestFinished), then free its stage range. */
    void finishPipeline(int request_index);

    /** Send @p item to @p node, a live node, to land at @p when, and
     *  queue its wake if one is due (InboxPool::send). */
    void sendWork(int node, double when, const WorkItem &item);

    /** Queue the wake of @p node's earliest pending entry, unless
     *  nothing is pending or that entry is already woken. */
    void wakeHead(int node);

    /** Deliver @p node's inbox up to the event being dispatched: drop
     *  items of stale request epochs, queue the rest, and start a
     *  batch whenever one lands while the node is idle. */
    void deliverWork(int node);

    /** Start a batch on an idle node with a non-empty queue, taking
     *  items from the queue in place (InboxPool::takeQueued). */
    void startBatch(int node);

    /** Complete the batch in NodeState::running. @p node_epoch is the
     *  node's liveness epoch when the batch started; a mismatch means
     *  the node failed meanwhile and the batch was dropped. */
    void finishBatch(int node, uint32_t node_epoch);

    /** Handle an output token arriving back at the coordinator. */
    void onTokenAtCoordinator(int request, uint32_t epoch);

    /** Reclaim a finished request's KV at @p node (KvRelease). The
     *  node epoch stamped at send time guards against a failure (and
     *  possible recovery) while the message was in flight. */
    void applyKvRelease(int node, double bytes, uint32_t node_epoch);

    /** Fail @p node: drop its work, restart affected requests. */
    void onNodeFailure(int node);

    /** Recover @p node: rejoin with empty KV and queue. */
    void onNodeRecovery(int node);

    /**
     * Re-solve max-flow on the surviving subgraph after a liveness
     * change (the node's NodeState::dead is already updated) and
     * publish the new flows (publishFlows).
     */
    void resolveTopology(int node, ChurnEvent::Kind kind);

    /**
     * Hand the manager's freshly re-solved flows to the scheduler,
     * log the flow value in SimMetrics::flowEvents (a Drift event as
     * ResolveKind::Drift, a liveness event as Repair), and resize the
     * fair shares to it. Ends every re-solve, liveness or drift.
     */
    void publishFlows(int node, ChurnEvent::Kind kind);

    /** Lazily build the live-topology manager (first churn or drift
     *  event, or run start when arbitration is active). */
    scheduler::TopologyManager &topologyManager();

    /**
     * Drift check after a batch on @p node: once the throughput EWMA
     * has matured, a node observed below plannedFlow * (1 - threshold)
     * has its compute capacity shrunk to the observed rate and the
     * topology re-solved (SimConfig::driftThreshold).
     */
    void maybeDriftResolve(int node);

    /** Current context length of a request (prompt + generated). */
    static double contextLen(const RequestHot &hot);

    /** Whether @p t falls inside the measurement window. */
    bool inWindow(double t) const;

    /**
     * The event loop: pop the next event, dispatch it, until the
     * queue is empty or the next event falls past @p end_time. Every
     * event goes through the one queue; work waits in its node's inbox
     * and joins the node's queue, the inbox's delivered prefix, from
     * the handlers of that node's own wake or BatchDone events
     * (deliverWork). A cursor walks the request indices sorted by
     * arrival time and keeps only the next arrival queued: popping an
     * arrival pushes its successor, which is never earlier, as the
     * monotone queue requires.
     */
    void runEventLoop(const std::vector<ChurnEvent> &churn,
                      double end_time);

    const cluster::ClusterSpec &clusterRef;
    const cluster::Profiler &profiler;
    const placement::ModelPlacement &placementRef;
    scheduler::RequestScheduler &sched;
    SimConfig cfg;

    double now = 0.0;
    uint64_t eventSeq = 0;
    EventQueue events;
    /** The event being dispatched: queueLength counts the inbox
     *  entries that come before it. */
    Event dispatching;
    /** Set by run(): the state a run leaves behind (clock, queues,
     *  KV, link horizons, scheduler reservations) is not reset, so a
     *  second run() on the same instance is an error. */
    bool ran = false;

    std::vector<NodeState> nodes;
    /** Per node, parallel to nodes. */
    std::vector<NodeCost> nodeCosts;
    /** run()'s request list, read in place while the run lasts. */
    const trace::Request *traceRequests = nullptr;
    /** Parallel to traceRequests. */
    std::vector<RequestState> requests;
    /** Parallel to requests. */
    std::vector<RequestHot> requestHot;
    /** Every admitted request's stage range
     *  (RequestHot::firstStage/numStages). */
    StageTable stages;

    // Model constants of the cost model, computed once.
    /** KV bytes per token per layer. */
    double kvBytesPerTokenLayer = 0.0;
    /** Activation bytes per token shipped between stages. */
    double activationBytes = 0.0;
    /** Payload bytes of a coordinator token transfer. */
    double tokenBytes = 0.0;
    /** Context-independent forward FLOPs per token per layer. */
    double flopsPerTokenLayer = 0.0;
    /** Attention FLOPs per token per context token. */
    double attnFlopsPerContext = 0.0;
    /**
     * Engine-level admission cap, mirroring vLLM's bound on
     * concurrently running sequences: the coordinator holds requests
     * in its admission queue once the cluster's aggregate KV capacity
     * is fully subscribed. Derived from that capacity.
     */
    long maxActive = 1;
    Links links;
    InboxPool inboxes;
    /**
     * Live-topology re-solver, created lazily at the first churn
     * event (runs without churn never pay for the extra max-flow
     * solves). Schedulers keep only the flows of a re-solved
     * topology, never a reference to it, so their lifetime stays
     * independent of the simulator's.
     */
    std::unique_ptr<scheduler::TopologyManager> topoManager;

    /**
     * The admission queue of arrived, not-yet-admitted requests,
     * built at the start of run() from SimConfig::tenants.
     * It arbitrates only with two or more tenants; otherwise it
     * serves arrival (or requeue) order.
     */
    scheduler::FairShareController fair;
    /** Decision-to-effect delay of a preemption: the minimum link
     *  propagation latency (see Event::Kind::Preempt). */
    double preemptDelayS = 0.0;

    /** Run-level counters (per-node ones live in NodeState). */
    SimMetrics metrics;
};

} // namespace sim
} // namespace helix

#endif // HELIX_SIM_SIMULATOR_H
