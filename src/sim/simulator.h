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
 *    propagation latency, which reproduces the congestion phenomena of
 *    the scheduling case study (Sec. 6.7);
 *  - the coordinator loop: per-request pipelines, one round trip per
 *    generated token, admission retry when the scheduler masks all
 *    candidates;
 *  - node churn mid-run: an ordered schedule of fail/recover events.
 *    A failed node's work is dropped and every affected request is
 *    rescheduled around it; a recovered node rejoins with empty KV
 *    and queue. On every event the simulator re-solves max-flow on
 *    the surviving subgraph (scheduler::TopologyManager) and swaps
 *    the fresh topology into the scheduler, so routing proportions
 *    always match the live cluster (Sec. 5 semantics).
 *
 * The event queue holds small trivially-copyable tagged-union events
 * (no std::function, no per-event heap allocation); batch vectors are
 * owned by the node states and reused across iterations.
 */

#ifndef HELIX_SIM_SIMULATOR_H
#define HELIX_SIM_SIMULATOR_H

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/profiler.h"
#include "placement/placement.h"
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

/** Simulation parameters. */
struct SimConfig
{
    /** Seconds of warmup excluded from metrics. */
    double warmupSeconds = 30.0;
    /** Measurement window length after warmup. */
    double measureSeconds = 300.0;
    /** Iteration slowdown per unit of KV oversubscription. */
    double kvSwapPenalty = 4.0;
    /** Max requests batched per iteration. */
    int maxBatchRequests = 256;
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
     * Engine-level admission cap, mirroring vLLM's bound on
     * concurrently running sequences: the coordinator holds requests
     * in a host-side queue once the cluster's aggregate KV capacity is
     * fully subscribed. 0 = derive from KV capacity; negative =
     * unlimited.
     */
    int maxActiveRequests = 0;
    /**
     * Churn event schedule: fail and recover events applied in time
     * order. A failed node's queued and in-flight work is dropped,
     * affected requests restart from the prompt through the
     * scheduler, and schedulers see the node as dead
     * (SchedulerContext::nodeAlive). Each event triggers a warm-start
     * max-flow repair on the surviving subgraph and a topology swap
     * into the scheduler; the resulting flow values are logged in
     * SimMetrics::flowEvents. Events with out-of-range nodes or
     * negative times are ignored.
     */
    std::vector<ChurnEvent> churnEvents;
    /**
     * Time constant (seconds) of the per-node throughput EWMA exposed
     * to schedulers: a batch of duration d carries weight
     * 1 - exp(-d / tau), so many small batches and one long batch of
     * the same total duration influence the estimate equally.
     */
    double throughputEwmaTauS = 10.0;
    /**
     * Drift-triggered re-solve threshold, as a fraction in (0, 1):
     * after a batch completes on a node whose speed estimate has
     * matured (cumulative busy time >= throughputEwmaTauS), the
     * observed decode throughput is the profiled capacity scaled by
     * the node's speed EWMA (modeled / actual batch duration). When
     * that observed throughput falls below
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
     * Tenant classes for fair-share admission arbitration
     * (scheduler::FairShareController). Fewer than two entries keeps
     * the original single-queue admission path — runs without
     * tenants (or with one) are byte-identical to pre-tenancy
     * behavior.
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
     * Per-tenant serving statistics; populated only when fair-share
     * tenancy is active (two or more SimConfig::tenants), empty
     * otherwise so single-tenant metrics stay identical to the
     * pre-tenancy simulator.
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

    /** Run to completion of the measurement window. */
    SimMetrics run(const std::vector<trace::Request> &requests);

    // --- SchedulerContext (feedback views) ---
    int queueLength(int node) const override;
    double recentThroughput(int node) const override;
    double kvUsedBytes(int node) const override;
    bool nodeAlive(int node) const override;

  private:
    struct WorkItem
    {
        int request = -1;
        int stage = 0;
        int numTokens = 0;
        /**
         * Scheduling epoch of the request when the item was created.
         * A node failure bumps the epoch of every affected request;
         * stale items and messages are dropped when dequeued.
         */
        uint32_t epoch = 0;
        bool isPrompt = false;
        /**
         * False for all but the last chunk of a chunked prefill; only
         * the final chunk forwards the request to the next stage.
         */
        bool finalChunk = true;
    };

    /**
     * Tagged-union event. Trivially copyable and self-contained: the
     * hot loop never allocates per event. BatchDone carries only the
     * node; the batch items live in NodeState::running.
     */
    struct Event
    {
        enum class Kind : uint8_t
        {
            /** Request item.request arrives at the coordinator. Fed
             *  from the run loop's arrival cursor, never queued. */
            Arrival,
            /** Work item delivered to node's queue. */
            WorkDelivery,
            /** Output token of item.request reaches the coordinator. */
            TokenDelivery,
            /** The batch running on node completes. */
            BatchDone,
            /** Node fails (churn scenario). */
            NodeFailure,
            /** Node rejoins with empty KV and queue (churn). */
            NodeRecovery,
            /**
             * Control-plane notification that a finished request's KV
             * pages at node can be reclaimed (kvBytes of them). Sent
             * by the coordinator at completion and delivered after the
             * coordinator->node propagation latency, so KV release is
             * a message like every other cross-node effect: a node
             * cannot reuse the pages before the notice could reach it.
             */
            KvRelease,
            /**
             * Fair-share preemption of item.request takes effect: the
             * request's work is dropped and its KV released through
             * the epoch-safe restart machinery, and it rejoins the
             * head of its tenant's admission queue. Scheduled one
             * preemption delay (the minimum link latency) after the
             * decision: the revocation is a control-plane message,
             * and the teardown never runs inside the token handler
             * that made the decision. item.epoch is the request
             * epoch at decision time; a mismatch (or a finished
             * request) makes the event a stale no-op. Appended last
             * so existing kinds keep their eventBefore ranks.
             */
            Preempt,
        };

        double time = 0.0;
        uint64_t seq = 0;
        double batchSeconds = 0.0; // BatchDone: actual duration
        /** BatchDone: duration the cost model alone predicts, before
         *  unprofiled multipliers (nodeSlowdown, KV paging). The
         *  ratio model/actual is the drift trigger's speed sample. */
        double modelSeconds = 0.0;
        double kvBytes = 0.0;      // KvRelease: bytes to reclaim
        WorkItem item;             // WorkDelivery / Arrival / Token
        int node = 0;              // WorkDelivery / BatchDone / Failure
        Kind kind = Kind::Arrival;
    };

    /**
     * Total order on events: time first, then a CONTENT key (kind,
     * node, request, stage, epoch), then the scheduling sequence
     * number as a last-resort tie-break. Two distinct events that can
     * coexist in a queue always differ in the content key (a request
     * has at most one in-flight item, a node at most one running
     * batch), so equal-time ties order by what the events are, not by
     * when a handler happened to create them. Symmetric workloads
     * produce exact time ties, so this is what keeps output bytes
     * stable when handlers are reordered, and what lets the arrival
     * cursor merge with the heap without a sequence number: an
     * Arrival never ties another event's content key.
     */
    static bool eventBefore(const Event &a, const Event &b);

    struct EventOrder
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            // priority_queue pops the maximum: invert eventBefore.
            return eventBefore(b, a);
        }
    };

    struct NodeState
    {
        std::deque<WorkItem> queue;
        /** Items of the batch currently running (reused storage). */
        std::vector<WorkItem> running;
        bool busy = false;
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

    struct RequestState
    {
        trace::Request request;
        scheduler::Pipeline pipeline;
        /**
         * KV bytes this request has actually written at each pipeline
         * stage's node (indexed like pipeline). Finish and churn
         * restarts release exactly this, so one request's teardown
         * can never drain KV accounted to others.
         */
        std::vector<double> kvWritten;
        bool admitted = false;
        bool finished = false;
        /** Ever torn down by node churn: excluded from latency
         *  samples, and regenerated work is not recounted. */
        bool restartedEver = false;
        /** Prompt completion already counted toward throughput. */
        bool promptCounted = false;
        int generated = 0;
        /** High-water mark of generated across restarts: only tokens
         *  beyond it are new output (not churn regeneration). */
        int peakGenerated = 0;
        uint32_t epoch = 0;
        double firstTokenTime = -1.0;
        double finishTime = -1.0;
        /** A Preempt event for this request is in flight; suppresses
         *  duplicate victim selection until it lands. */
        bool preemptScheduled = false;
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
        LinkStat stat;
    };

    /** Push a typed event at absolute time @p when. */
    void scheduleEvent(double when, Event event);

    /** Dispatch one popped event to its kind's handler. */
    void dispatch(const Event &event);

    /** Try to admit pending requests through the scheduler. */
    void tryAdmit();

    /** Fair-share admission: pull from the most under-share tenant's
     *  queue until the scheduler refuses or the active cap binds.
     *  Runs instead of the FIFO loop when tenancy is active. */
    void tryAdmitFair();

    /** Tenant class of a request (clamped to the declared range,
     *  validated against the fair-share arbiter when one exists). */
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
     * RequestState::kvWritten at every live pipeline stage (skipping
     * @p skip_node, the failed node whose state was wiped wholesale;
     * -1 skips none), notifies the scheduler, bumps the request
     * epoch so in-flight work and messages go stale, and resets
     * generation progress (peakGenerated keeps regenerated tokens
     * from double-counting).
     */
    void restartRequest(int request_index, int skip_node);

    /** Drop queued work items whose request epoch went stale (after
     *  restartRequest), fixing up per-node inFlight. */
    void purgeStaleQueuedWork();

    /**
     * Account a transfer of @p bytes over (from, to) and return its
     * delivery time (serialization + propagation).
     */
    double transferDelivery(int from, int to, double bytes);

    /** Deliver a work item to a node's queue. */
    void enqueueWork(int node, const WorkItem &item);

    /** Start a batch on an idle node with a non-empty queue. */
    void startBatch(int node);

    /** Complete the batch in NodeState::running. @p node_epoch is the
     *  node's liveness epoch when the batch started; a mismatch means
     *  the node failed meanwhile and the batch was dropped. */
    void finishBatch(int node, double batch_seconds,
                     double model_seconds,
                     uint32_t node_epoch);

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
     * change, swap the fresh topology into the scheduler, and log the
     * new flow value in SimMetrics::flowEvents.
     */
    void resolveTopology(int node, ChurnEvent::Kind kind);

    /** Lazily build the live-topology manager (first churn or drift
     *  event, or run start under fair share). */
    scheduler::TopologyManager &topologyManager();

    /**
     * Drift check after a batch on @p node: once the throughput EWMA
     * has matured, a node observed below plannedFlow * (1 - threshold)
     * has its compute capacity shrunk to the observed rate and the
     * topology re-solved (SimConfig::driftThreshold).
     */
    void maybeDriftResolve(int node);

    /** Current context length of a request (prompt + generated). */
    double contextLen(const RequestState &rs) const;

    /** Whether @p t falls inside the measurement window. */
    bool inWindow(double t) const;

    LinkState &linkState(int from, int to);

    /** Minimum propagation latency over all directed links: the
     *  fastest any control-plane message can land (preemption). */
    double minLinkLatency() const;

    /** SimConfig::churnEvents without invalid and drift entries. */
    std::vector<ChurnEvent> churnSchedule() const;

    /**
     * The event loop. Arrivals are not queued: a cursor walks the
     * request indices sorted by arrival time, and each iteration
     * dispatches whichever comes first under eventBefore — the
     * cursor's arrival or the heap top — so the heap only ever holds
     * in-flight work.
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
    std::priority_queue<Event, std::vector<Event>, EventOrder> events;

    std::vector<NodeState> nodes;
    std::vector<RequestState> requests;
    /** Admission queue of arrived, not-yet-admitted requests. */
    std::deque<int> pending;
    std::vector<LinkState> links; // (side)^2, row 0 = coordinator
    int side = 0;
    /** Scratch for prompts deferred during batch assembly (reused). */
    std::vector<WorkItem> deferredScratch;
    /**
     * Live-topology re-solver, created lazily at the first churn
     * event (runs without churn never pay for the extra max-flow
     * solves). The scheduler copies the topology it is rebound to,
     * so its lifetime stays independent of the simulator's.
     */
    std::unique_ptr<scheduler::TopologyManager> topoManager;

    /**
     * Fair-share admission arbiter, created per run() when two or
     * more tenants are configured; null otherwise, leaving the
     * original single-queue admission path (and its byte-exact
     * behavior) untouched.
     */
    std::unique_ptr<scheduler::FairShareController> fair;
    /** Decision-to-effect delay of a preemption: the minimum link
     *  propagation latency (see Event::Kind::Preempt). */
    double preemptDelayS = 0.0;

    /** Run-level counters (per-node ones live in NodeState). */
    SimMetrics metrics;
};

} // namespace sim
} // namespace helix

#endif // HELIX_SIM_SIMULATOR_H
