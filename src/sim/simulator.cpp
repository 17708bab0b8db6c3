#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "placement/placement_graph.h"
#include "scheduler/topology_manager.h"
#include "util/logging.h"

namespace helix {
namespace sim {

namespace {

/** Iteration slowdown per unit of KV oversubscription. */
constexpr double kKvSwapPenalty = 4.0;

/** @p config's churn events without invalid and drift entries, on a
 *  cluster of @p num_nodes. Ordering among same-time events follows
 *  insertion order (duplicate entries tie on the content key and fall
 *  through to the sequence number). */
std::vector<ChurnEvent>
churnSchedule(const SimConfig &config, int num_nodes)
{
    std::vector<ChurnEvent> churn;
    for (const ChurnEvent &event : config.churnEvents) {
        if (event.node < 0 || event.node >= num_nodes ||
            event.atSeconds < 0.0 ||
            event.kind == ChurnEvent::Kind::Drift)
            continue;
        churn.push_back(event);
    }
    return churn;
}

} // namespace

double
minLinkLatency(const cluster::ClusterSpec &cluster_spec)
{
    const int n = cluster_spec.numNodes();
    auto region = [&](int endpoint) {
        return endpoint == cluster::kCoordinator
                   ? cluster_spec.coordinatorRegion()
                   : cluster_spec.node(endpoint).region;
    };
    // Ordered pairs of distinct endpoints per class: a region of k
    // endpoints has k (k - 1) of them.
    std::vector<int> regions;
    regions.reserve(static_cast<size_t>(n) + 1);
    for (int endpoint = cluster::kCoordinator; endpoint < n; ++endpoint)
        regions.push_back(region(endpoint));
    std::sort(regions.begin(), regions.end());
    int64_t intra_pairs = 0;
    for (size_t first = 0; first < regions.size();) {
        size_t last = first;
        while (last < regions.size() && regions[last] == regions[first])
            ++last;
        const auto k = static_cast<int64_t>(last - first);
        intra_pairs += k * (k - 1);
        first = last;
    }
    const int64_t endpoints = static_cast<int64_t>(n) + 1;
    int64_t inter_pairs = endpoints * (endpoints - 1) - intra_pairs;

    double best = std::numeric_limits<double>::infinity();
    for (const cluster::LinkOverride &entry : cluster_spec.linkOverrides()) {
        best = std::min(best, entry.link.latencyS);
        if (region(entry.from) == region(entry.to))
            --intra_pairs;
        else
            --inter_pairs;
    }
    if (intra_pairs > 0)
        best = std::min(best, cluster_spec.intraRegionLink().latencyS);
    if (inter_pairs > 0)
        best = std::min(best, cluster_spec.interRegionLink().latencyS);
    return best;
}

const char *
toString(ChurnEvent::Kind kind)
{
    switch (kind) {
      case ChurnEvent::Kind::Fail:    return "fail";
      case ChurnEvent::Kind::Recover: return "recover";
      case ChurnEvent::Kind::Drift:   return "drift";
    }
    return "?";
}

const char *
toString(ResolveKind kind)
{
    switch (kind) {
      case ResolveKind::Repair: return "repair";
      case ResolveKind::Drift:  return "drift";
    }
    return "?";
}

ClusterSimulator::ClusterSimulator(
    const cluster::ClusterSpec &cluster_spec,
    const cluster::Profiler &profiler_ref,
    const placement::ModelPlacement &placement_spec,
    scheduler::RequestScheduler &scheduler_ref, SimConfig config)
    : clusterRef(cluster_spec), profiler(profiler_ref),
      placementRef(placement_spec), sched(scheduler_ref), cfg(config),
      // A pipeline has at most one stage per layer.
      stages(profiler_ref.modelSpec().numLayers),
      links(cluster_spec, placement_spec,
            profiler_ref.modelSpec().numLayers,
            profiler_ref.activationBytes(), config.collectLinkStats),
      inboxes(static_cast<size_t>(cluster_spec.numNodes())),
      fair(scheduler::FairShareController::Config{})
{
    const int n = cluster_spec.numNodes();
    HELIX_ASSERT(placement_spec.size() == static_cast<size_t>(n));
    // Cost-model factors the batch handlers would otherwise rederive
    // per batch or item, each the same expression as at its use.
    const model::TransformerSpec &model_spec = profiler.modelSpec();
    kvBytesPerTokenLayer =
        static_cast<double>(model_spec.kvBytesPerTokenPerLayer());
    activationBytes = profiler.activationBytes();
    tokenBytes = profiler.tokenBytes();
    flopsPerTokenLayer = model_spec.flopsPerTokenPerLayer();
    attnFlopsPerContext = model_spec.attentionFlopsPerToken(1);
    nodes.resize(n);
    nodeCosts.resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
        const cluster::NodeSpec &hw = cluster_spec.node(i);
        nodes[i].layersHeld = placement_spec[i].count;
        nodes[i].kvCapacity =
            placement_spec[i].count > 0
                ? static_cast<double>(profiler.kvCapacityBytes(
                      hw, placement_spec[i].count))
                : 0.0;
        NodeCost &node_cost = nodeCosts[static_cast<size_t>(i)];
        node_cost.roofline = profiler.roofline(hw, nodes[i].layersHeld);
        node_cost.coordLatencyS =
            cluster_spec.link(cluster::kCoordinator, i).latencyS;
    }
    // Derive the engine-level concurrency bound from aggregate KV
    // capacity: one request occupies (context x layers) KV token
    // slots spread over its pipeline.
    double token_layers = 0.0;
    for (const NodeState &state : nodes)
        token_layers += state.kvCapacity / kvBytesPerTokenLayer;
    double per_request = cluster::kPlanningContextLen * model_spec.numLayers;
    // Capped before the cast: a parsed node may hold up to 2^63 bytes.
    maxActive = static_cast<int>(
        std::clamp(token_layers / per_request, 1.0,
                   static_cast<double>(std::numeric_limits<int>::max())));
}

ClusterSimulator::~ClusterSimulator() = default;

void
ClusterSimulator::scheduleEvent(double when, Event event)
{
    HELIX_ASSERT(when >= now);
    event.time = when;
    event.seq = eventSeq++;
    events.push(event);
}

bool
ClusterSimulator::inWindow(double t) const
{
    return t >= cfg.warmupSeconds &&
           t < cfg.warmupSeconds + cfg.measureSeconds;
}

double
ClusterSimulator::contextLen(const RequestHot &hot)
{
    return static_cast<double>(hot.promptLen + hot.generated);
}

int
ClusterSimulator::queueLength(int node) const
{
    // Inbox entries ahead of the current event have been delivered;
    // those of live requests count as queued.
    return nodes[node].inFlight +
           inboxes.deliveredCount(
               node, dispatching, [this](const WorkItem &item) {
                   return requestHot[item.request].epoch == item.epoch;
               });
}

double
ClusterSimulator::recentThroughput(int node) const
{
    // Decay the estimate by the time elapsed since the last batch on
    // the same tau the EWMA itself uses. Without this, a node that
    // went quiet (idle, masked, or dead) keeps reporting its last
    // busy-period rate forever, and the Swarm-style throughput-
    // proportional walker keeps over-weighting it.
    const NodeState &state = nodes[node];
    if (state.ewmaThroughput <= 0.0)
        return 0.0;
    double idle = std::max(0.0, now - state.ewmaUpdatedAt);
    return state.ewmaThroughput *
           std::exp(-idle / scheduler::kThroughputEwmaTauS);
}

double
ClusterSimulator::kvUsedBytes(int node) const
{
    return nodes[node].kvUsed;
}

bool
ClusterSimulator::nodeAlive(int node) const
{
    return !nodes[node].dead;
}

int
ClusterSimulator::tenantOf(int request_index) const
{
    const int t = traceRequests[request_index].tenant;
    if (t < 0 || t >= fair.numTenants())
        return 0;
    return t;
}

void
ClusterSimulator::tryAdmit()
{
    while (metrics.requestsAdmitted - metrics.requestsCompleted <
           maxActive) { // Engine-level KV backpressure.
        // The most under-share demanding tenant goes first; tenants
        // over share beyond tolerance are held while anyone else sits
        // below share (weighted max-min, scheduler/fair_share.h).
        // Without arbitration: arrival (or requeue) order.
        int idx = fair.popNext(now);
        if (idx < 0)
            break; // Every queue is empty or held.
        int t = tenantOf(idx);
        auto pipeline = sched.schedule(traceRequests[idx], *this);
        if (!pipeline) {
            // Nothing admissible right now. If the cluster is
            // completely idle AND fully alive, this request can never
            // be served (it exceeds every node's standalone
            // capacity): reject it to avoid blocking the queue
            // forever. With a dead node the inference does not hold —
            // a scheduled recover event may restore the missing stage
            // — so the backlog is held (head of its tenant's queue)
            // instead of rejected.
            bool idle = true;
            bool any_dead = false;
            for (size_t node = 0; node < nodes.size(); ++node) {
                if (nodes[node].dead) {
                    any_dead = true;
                } else if (inboxes.busy(static_cast<int>(node)) ||
                           nodes[node].inFlight > 0) {
                    idle = false;
                    break;
                }
            }
            long still_active = metrics.requestsAdmitted -
                                metrics.requestsCompleted;
            if (idle && !any_dead && still_active <= 0) {
                ++metrics.requestsRejected;
                ++metrics.tenantStats[static_cast<size_t>(t)]
                      .requestsRejected;
                continue;
            }
            fair.requeueFront(t, idx);
            break;
        }
        admit(idx, t, *pipeline);
    }
    maybeSchedulePreempt();
}

void
ClusterSimulator::admit(int request_index, int tenant,
                        const scheduler::Pipeline &pipeline)
{
    HELIX_ASSERT(scheduler::pipelineValid(
        pipeline, profiler.modelSpec().numLayers));
    RequestState &rs = requests[static_cast<size_t>(request_index)];
    RequestHot &hot = requestHot[static_cast<size_t>(request_index)];
    HELIX_ASSERT(hot.numStages == 0);
    const auto num_stages = static_cast<uint32_t>(pipeline.size());
    hot.firstStage = stages.allocate(num_stages);
    hot.numStages = num_stages;
    for (uint32_t s = 0; s < num_stages; ++s) {
        const scheduler::PipelineStage &stage = pipeline[s];
        const int to = s + 1 < num_stages ? pipeline[s + 1].node
                                          : cluster::kCoordinator;
        stages[hot.firstStage + s] =
            Stage{stage.node, stage.startLayer, stage.endLayer,
                  links.index(stage.node, to), 0.0};
    }
    rs.firstLink = links.index(cluster::kCoordinator, pipeline.front().node);
    ++metrics.requestsAdmitted;
    ++metrics.tenantStats[static_cast<size_t>(tenant)].requestsAdmitted;
    fair.onAdmitted(tenant);
    sched.onRequestAdmitted(traceRequests[request_index], pipeline);

    // The coordinator ships the token ids of the prompt to the first
    // stage.
    double bytes = static_cast<double>(hot.promptLen) * tokenBytes;
    sendWork(pipeline.front().node, links.transfer(rs.firstLink, bytes, now),
             WorkItem{request_index, 0, hot.promptLen, hot.epoch, true,
                      true});
}

void
ClusterSimulator::finishPipeline(int request_index)
{
    RequestHot &hot = requestHot[static_cast<size_t>(request_index)];
    sched.onRequestFinished(traceRequests[request_index],
                            stages.pipeline(hot.firstStage, hot.numStages));
    stages.release(hot.firstStage, hot.numStages);
    hot.numStages = 0;
}

void
ClusterSimulator::maybeSchedulePreempt()
{
    // Runs on every token: skip the call when no arbitration runs.
    if (!fair.active())
        return;
    int victim_class = fair.checkPreemption(now);
    if (victim_class < 0)
        return;
    // Newest admitted request of the victim class (LIFO victim
    // choice, like ytsaurus's preempt-newest-jobs: the newest request
    // has the least sunk prefill work to throw away). Request indices
    // follow arrival order, so scan from the back.
    int victim = -1;
    for (size_t i = requests.size(); i > 0; --i) {
        if (requestHot[i - 1].numStages == 0 ||
            requests[i - 1].preemptScheduled)
            continue;
        if (tenantOf(static_cast<int>(i - 1)) != victim_class)
            continue;
        victim = static_cast<int>(i - 1);
        break;
    }
    if (victim < 0)
        return;
    requests[static_cast<size_t>(victim)].preemptScheduled = true;
    // One preemption delay out: the revocation travels like any
    // control-plane message (see Event::Kind::Preempt).
    Event ev;
    ev.kind = Event::Kind::Preempt;
    ev.item.request = victim;
    ev.item.epoch = requestHot[static_cast<size_t>(victim)].epoch;
    scheduleEvent(now + preemptDelayS, ev);
}

void
ClusterSimulator::applyPreempt(const Event &event)
{
    const int idx = event.item.request;
    RequestState &rs = requests[static_cast<size_t>(idx)];
    rs.preemptScheduled = false;
    const RequestHot &hot = requestHot[static_cast<size_t>(idx)];
    if (hot.numStages == 0 || hot.epoch != event.item.epoch)
        return; // Finished or torn down since the decision: stale.
    const int t = tenantOf(idx);
    restartRequest(idx, -1);
    ++metrics.requestsPreempted;
    ++metrics.tenantStats[static_cast<size_t>(t)].requestsPreempted;
    purgeStaleQueuedWork();
    // Head of its tenant's queue: the request is re-admitted first
    // once its tenant is back within share.
    fair.requeueFront(t, idx);
    tryAdmit();
}

void
ClusterSimulator::sendWork(int node, double when, const WorkItem &item)
{
    HELIX_ASSERT(when >= now);
    HELIX_ASSERT(!nodes[node].dead);
    if (inboxes.send(node, when, item))
        wakeHead(node);
}

void
ClusterSimulator::wakeHead(int node)
{
    Event wake;
    if (inboxes.takeWake(node, wake))
        scheduleEvent(wake.time, wake);
}

void
ClusterSimulator::deliverWork(int node)
{
    NodeState &state = nodes[node];
    inboxes.deliver(
        node, dispatching,
        // Every restart is followed by a purge of the queues, so an
        // item whose request restarted since it was sent is dropped.
        [this](const WorkItem &item) {
            return requestHot[item.request].epoch == item.epoch;
        },
        [&](const WorkItem &) {
            ++state.inFlight;
            if (!inboxes.busy(node))
                startBatch(node);
        });
}

void
ClusterSimulator::startBatch(int node)
{
    NodeState &state = nodes[node];
    HELIX_ASSERT(!inboxes.busy(node));
    HELIX_ASSERT(inboxes.hasQueued(node));
    HELIX_ASSERT(state.running.empty());

    // Best-effort dynamic batching with vLLM-style KV backpressure:
    // decode items always run; a prompt item joins the batch only if
    // the node's KV can hold the request's context (otherwise it waits
    // in the queue until completions free pages). A prompt is always
    // accepted on an otherwise-empty node so oversized requests make
    // progress (with the swap penalty) instead of deadlocking.
    //
    // The batch is formed in one pass: each taken item adds its
    // roofline terms (all FLOPs at the effective rate, plus KV reads
    // for decode items) as it joins, in batch order.
    const cluster::Roofline &roofline =
        nodeCosts[static_cast<size_t>(node)].roofline;
    std::vector<WorkItem> &batch = state.running;
    double reserved = 0.0;
    double compute_s = 0.0;
    double kv_bytes = 0.0;
    int token_budget = kMaxBatchTokens;
    inboxes.takeQueued(node, [&](WorkItem &item) {
        if (token_budget <= 0 ||
            static_cast<int>(batch.size()) >= cluster::kMaxBatchRequests)
            return InboxPool::Take::Stop;
        const RequestHot &hot = requestHot[item.request];
        const int layers = stages[hot.firstStage + item.stage].numLayers();
        const double ctx = contextLen(hot);
        const auto add = [&](const WorkItem &taken) {
            batch.push_back(taken);
            double flops_per_token =
                flopsPerTokenLayer +
                attnFlopsPerContext *
                    static_cast<double>(static_cast<int>(
                        taken.isPrompt ? ctx / 2 : ctx));
            compute_s += static_cast<double>(taken.numTokens) * layers *
                         flops_per_token / roofline.effFlops;
            if (!taken.isPrompt)
                kv_bytes += ctx * kvBytesPerTokenLayer * layers;
        };
        if (item.isPrompt) {
            // KV admission applies to the first chunk of a prompt
            // (when the request becomes resident on this node).
            bool first_chunk = item.numTokens == hot.promptLen;
            if (first_chunk) {
                double need =
                    (static_cast<double>(hot.promptLen) + 1.0) *
                    kvBytesPerTokenLayer * layers;
                bool node_empty =
                    state.kvUsed <= 0.0 && reserved <= 0.0;
                if (!node_empty &&
                    state.kvUsed + reserved + need >
                        state.kvCapacity)
                    return InboxPool::Take::Leave;
                reserved += need;
            }
            if (item.numTokens > token_budget) {
                // Chunked prefill: run what fits, and leave the rest
                // queued in its place for the next iteration.
                WorkItem chunk = item;
                chunk.numTokens = token_budget;
                chunk.finalChunk = false;
                item.numTokens -= token_budget;
                add(chunk);
                token_budget = 0;
                return InboxPool::Take::Stop;
            }
            token_budget -= item.numTokens;
        } else {
            token_budget -= 1;
        }
        add(item);
        return InboxPool::Take::Remove;
    });
    if (batch.empty())
        return; // All queued prompts are waiting for KV pages.

    // Roofline batch time: one pass over resident weights on top of
    // the terms summed above.
    double batch_s = roofline.seconds(compute_s, kv_bytes);
    // Duration the profiled cost model alone predicts; the
    // multipliers below are exactly the degradation the drift
    // trigger is meant to observe.
    const double model_s = batch_s;

    // Degradation the profiler did not see (SimConfig::nodeSlowdown):
    // the node runs slower than planned, which the drift trigger can
    // then observe and route around.
    if (node < static_cast<int>(cfg.nodeSlowdown.size()) &&
        cfg.nodeSlowdown[node] > 0.0) {
        batch_s *= cfg.nodeSlowdown[node];
    }

    // KV oversubscription: model paging to host memory as a slowdown.
    if (state.kvCapacity > 0.0 && state.kvUsed > state.kvCapacity) {
        double over = state.kvUsed / state.kvCapacity - 1.0;
        batch_s *= 1.0 + kKvSwapPenalty * over;
    }

    // Sample KV utilization for metrics.
    if (state.kvCapacity > 0.0 && inWindow(now)) {
        state.utilSum += state.kvUsed / state.kvCapacity;
        ++state.utilSamples;
    }

    state.batchSeconds = batch_s;
    state.modelSeconds = model_s;
    Event ev;
    ev.kind = Event::Kind::BatchDone;
    ev.node = node;
    // Stamp the node's liveness epoch so a failure (and possible
    // recovery) between now and completion invalidates this batch.
    ev.item.epoch = state.epoch;
    inboxes.setBusyUntil(node, now + batch_s);
    scheduleEvent(now + batch_s, ev);
}

void
ClusterSimulator::finishBatch(int node, uint32_t node_epoch)
{
    NodeState &state = nodes[node];
    if (state.epoch != node_epoch) {
        // The node failed while this batch was in flight (it may even
        // have recovered since): the failure already cleared running
        // and restarted the affected requests, and any batch running
        // now belongs to the new epoch. Drop the stale completion.
        return;
    }
    // Work that landed while the batch ran ranks before this BatchDone.
    deliverWork(node);
    inboxes.setBusyUntil(node, -std::numeric_limits<double>::infinity());
    const double batch_seconds = state.batchSeconds;
    const double model_seconds = state.modelSeconds;

    long tokens_processed = 0;
    long items_processed = 0;
    for (const WorkItem &item : state.running) {
        const RequestHot &hot = requestHot[item.request];
        if (hot.epoch != item.epoch) {
            // The request was restarted (node churn) while this item
            // ran. Its KV on this node was already released; only the
            // in-flight counter still holds its slot.
            if (item.finalChunk)
                --state.inFlight;
            continue;
        }
        Stage &stage = stages[hot.firstStage + item.stage];
        tokens_processed += item.numTokens;
        ++items_processed;

        // KV written by this stage: the processed prompt chunk during
        // the prompt phase, one token per decode iteration.
        double kv_delta = static_cast<double>(item.numTokens) *
                          kvBytesPerTokenLayer * stage.numLayers();
        state.kvUsed += kv_delta;
        stage.kvWritten += kv_delta;

        if (!item.finalChunk) {
            // Intermediate prefill chunk: the request stays at this
            // node; its remainder is already queued.
            continue;
        }
        --state.inFlight;

        bool last_stage =
            static_cast<uint32_t>(item.stage) + 1 == hot.numStages;
        if (last_stage) {
            Event ev;
            ev.kind = Event::Kind::TokenDelivery;
            ev.item.request = item.request;
            ev.item.epoch = item.epoch;
            scheduleEvent(links.transfer(stage.outLink, tokenBytes, now), ev);
            // Count a prompt completion once per request: a prompt
            // rerun after node churn is recovery work, not new served
            // tokens.
            RequestState &rs = requests[item.request];
            if (item.isPrompt && !rs.promptCounted) {
                rs.promptCounted = true;
                if (inWindow(now))
                    metrics.promptTokensInWindow += hot.promptLen;
            }
        } else {
            // A prompt forwards in full once its last chunk finishes
            // here (earlier chunks produced activations that are
            // shipped together with the final one).
            int tokens = item.isPrompt ? hot.promptLen : item.numTokens;
            double bytes = static_cast<double>(tokens) * activationBytes;
            sendWork(stages[hot.firstStage + item.stage + 1].node,
                     links.transfer(stage.outLink, bytes, now),
                     WorkItem{item.request, item.stage + 1, tokens,
                              item.epoch, item.isPrompt, true});
        }
    }
    state.running.clear();
    ++state.batches;
    state.itemsProcessed += items_processed;
    state.tokensProcessed += tokens_processed;
    state.busySeconds += batch_seconds;

    // Duration-weighted exponential throughput estimate, consumed by
    // the Swarm-style scheduler baseline: a batch of duration d
    // carries weight 1 - exp(-d / tau), so the estimate tracks a
    // fixed time horizon instead of a fixed batch count (which would
    // bias toward nodes running many small batches).
    double rate =
        static_cast<double>(tokens_processed) / batch_seconds;
    double alpha =
        1.0 - std::exp(-batch_seconds / scheduler::kThroughputEwmaTauS);
    state.ewmaThroughput += alpha * (rate - state.ewmaThroughput);
    state.ewmaUpdatedAt = now;
    // Speed sample for the drift trigger: 1.0 when the batch took
    // exactly what the cost model predicts, < 1 when the node ran
    // slower than profiled (nodeSlowdown, KV paging).
    if (batch_seconds > 0.0 && model_seconds > 0.0) {
        double speed = model_seconds / batch_seconds;
        state.ewmaSpeed += alpha * (speed - state.ewmaSpeed);
    }

    // Drift trigger: a node whose observed rate has fallen below its
    // planned flow loses routing weight before the next batch starts.
    maybeDriftResolve(node);

    if (inboxes.hasQueued(node))
        startBatch(node);
    if (!inboxes.busy(node))
        wakeHead(node);
}

void
ClusterSimulator::onTokenAtCoordinator(int request, uint32_t epoch)
{
    RequestState &rs = requests[request];
    RequestHot &hot = requestHot[request];
    if (hot.epoch != epoch)
        return; // Token from a pipeline that was torn down by churn.
    const trace::Request &req = traceRequests[request];
    ++hot.generated;
    const int t = tenantOf(request);
    SimMetrics::TenantStat &stat =
        metrics.tenantStats[static_cast<size_t>(t)];
    // Fair-share usage is charged per physically generated token —
    // including churn/preemption regeneration, which consumes real
    // capacity just the same.
    fair.noteDecodeToken(t, now);
    // After a churn restart the pipeline regenerates tokens it had
    // already delivered; only tokens beyond the high-water mark are
    // new output.
    bool new_token = hot.generated > rs.peakGenerated;
    if (new_token)
        rs.peakGenerated = hot.generated;
    if (rs.firstTokenTime < 0.0) {
        rs.firstTokenTime = now;
        // Mixed-window guard: only requests measured entirely inside
        // the window contribute, i.e. the arrival must also be
        // in-window — otherwise warmup queueing leaks into the
        // latency distribution (requests that straddle the boundary
        // carry arbitrarily long pre-window waits). Restarted
        // requests are excluded: their first token was already
        // sampled before the failure.
        if (!rs.restartedEver && inWindow(now) &&
            inWindow(req.arrivalS)) {
            metrics.promptLatency.add(now - req.arrivalS);
            // Per-tenant TTFT SLO sample, same mixed-window and
            // restart guards as the latency distribution.
            if (stat.sloTtftS > 0.0) {
                ++stat.ttftSamples;
                if (now - req.arrivalS <= stat.sloTtftS)
                    ++stat.ttftMet;
            }
        }
    } else if (new_token && inWindow(now)) {
        ++metrics.decodeTokensInWindow;
        ++stat.decodeTokensInWindow;
    }

    if (hot.generated >= req.outputLen) {
        // Request complete: notify every stage to release exactly the
        // KV this request wrote there. The release is an event
        // delivered after the coordinator->node propagation latency,
        // not an instantaneous cross-node write, because that is what
        // a real control plane does.
        ++metrics.requestsCompleted;
        ++stat.requestsCompleted;
        fair.onFinished(t);
        for (uint32_t s = 0; s < hot.numStages; ++s) {
            Stage &stage = stages[hot.firstStage + s];
            Event ev;
            ev.kind = Event::Kind::KvRelease;
            ev.node = stage.node;
            ev.kvBytes = stage.kvWritten;
            ev.item.request = request;
            ev.item.stage = static_cast<int>(s);
            // Liveness epoch: a failure between now and delivery
            // already zeroed the node's KV wholesale.
            ev.item.epoch = nodes[stage.node].epoch;
            scheduleEvent(
                now + nodeCosts[static_cast<size_t>(stage.node)]
                          .coordLatencyS,
                ev);
            stage.kvWritten = 0.0;
        }
        finishPipeline(request);
        // Same mixed-window guard as prompt latency: the decode
        // interval is [firstToken, finish]; both ends must be
        // in-window for the sample to be entirely measured.
        // Restarted requests are excluded — their interval spans the
        // failure and recovery, not steady-state decode.
        if (!rs.restartedEver && req.outputLen > 1 &&
            inWindow(now) && inWindow(rs.firstTokenTime)) {
            double tpot = (now - rs.firstTokenTime) /
                          (req.outputLen - 1);
            metrics.decodeLatency.add(tpot);
            if (stat.sloTpotS > 0.0) {
                ++stat.tpotSamples;
                if (tpot <= stat.sloTpotS)
                    ++stat.tpotMet;
            }
        }
        tryAdmit();
        return;
    }

    // Schedule the next decode iteration over the same pipeline: the
    // coordinator sends the newly sampled token to the first stage.
    sendWork(stages[hot.firstStage].node,
             links.transfer(rs.firstLink, tokenBytes, now),
             WorkItem{request, 0, 1, hot.epoch, false, true});
    // Starvation check on every delivered token: preemption decisions
    // ride the coordinator's natural cadence. May preempt the very
    // request whose next decode was just scheduled — the epoch bump
    // then makes that delivery stale.
    maybeSchedulePreempt();
}

void
ClusterSimulator::applyKvRelease(int node, double bytes,
                                 uint32_t node_epoch)
{
    NodeState &state = nodes[node];
    if (state.dead || state.epoch != node_epoch)
        return; // The failure already dropped the node's KV wholesale.
    state.kvUsed = std::max(0.0, state.kvUsed - bytes);
    // Freed KV pages may unblock prompts waiting at this node.
    if (!inboxes.busy(node) && inboxes.hasQueued(node))
        startBatch(node);
}

scheduler::TopologyManager &
ClusterSimulator::topologyManager()
{
    // Lazily build the manager: runs without churn or drift never pay
    // for the extra max-flow solves. The first build solves the full
    // topology (identical flows to the deployment's own solve —
    // construction and preflow-push are deterministic), then each
    // event repairs the persistent flow network in place.
    if (!topoManager) {
        topoManager = std::make_unique<scheduler::TopologyManager>(
            clusterRef, profiler, placementRef);
    }
    return *topoManager;
}

void
ClusterSimulator::resolveTopology(int node, ChurnEvent::Kind kind)
{
    topologyManager().setNodeAlive(node,
                                   kind == ChurnEvent::Kind::Recover);
    publishFlows(node, kind);
}

void
ClusterSimulator::publishFlows(int node, ChurnEvent::Kind kind)
{
    const double flow = topoManager->currentFlow();
    const ResolveKind how = kind == ChurnEvent::Kind::Drift
                                ? ResolveKind::Drift
                                : ResolveKind::Repair;
    // Atomic swap from the scheduler's point of view: no scheduling
    // decision can observe a half-updated weight set, because the
    // swap happens inside this event before any walk runs.
    sched.onTopologyChange(topoManager->current());
    metrics.flowEvents.push_back({now, node, kind, flow, how});
    // Fair shares divide the LIVE serving capacity.
    fair.setCapacity(flow);
}

void
ClusterSimulator::maybeDriftResolve(int node)
{
    if (cfg.driftThreshold <= 0.0)
        return;
    const NodeState &state = nodes[node];
    if (state.dead || state.layersHeld == 0)
        return;
    // Only act on a matured estimate: the EWMA climbs from zero, so
    // until the node has been busy for about one time constant the
    // observed rate understates steady state and would trigger
    // spurious shrinks.
    if (state.busySeconds < scheduler::kThroughputEwmaTauS)
        return;
    scheduler::TopologyManager &manager = topologyManager();
    double planned = manager.plannedNodeFlow(node);
    if (planned <= 0.0)
        return;
    // Observed serving capacity in the planner's units: the profiled
    // decode throughput scaled by the measured speed factor. The raw
    // ewmaThroughput blends prompt and decode tokens and is NOT
    // comparable to the planned decode flow.
    double observed =
        state.ewmaSpeed *
        profiler.decodeThroughput(clusterRef.node(node), state.layersHeld);
    if (observed >= planned * (1.0 - cfg.driftThreshold))
        return;
    // The straggler is serving below plan: shrink its compute
    // capacity to the observed rate so the re-solved flow routes
    // around it. plannedNodeFlow drops to at most the observed rate
    // afterwards, so the trigger re-arms only if the node degrades
    // further.
    manager.setNodeCapacity(node, observed);
    publishFlows(node, ChurnEvent::Kind::Drift);
}

void
ClusterSimulator::onNodeFailure(int node)
{
    NodeState &failed = nodes[node];
    if (failed.dead)
        return;
    failed.dead = true;
    ++failed.epoch;
    failed.running.clear();
    failed.inFlight = 0;
    failed.kvUsed = 0.0;
    // Every request with an item bound here is restarted below, so
    // each inbox entry would have been a stale delivery.
    inboxes.clear(node);
    inboxes.checkInboxes(nodes);
    // Note: if a batch was running on the failed node, its BatchDone
    // event still fires; finishBatch discards it via the epoch bump.

    // Re-solve the max flow on the surviving subgraph and swap the
    // fresh flows into the scheduler before anything is rescheduled,
    // so restarted requests route by the live proportions — not the
    // pre-failure ones.
    resolveTopology(node, ChurnEvent::Kind::Fail);

    // Restart every admitted, unfinished request whose pipeline
    // crosses the failed node: release exactly the KV it wrote at
    // each surviving stage, invalidate its in-flight work via the
    // epoch, and re-queue it for admission (ahead of never-admitted
    // arrivals).
    std::vector<int> restarted;
    for (size_t i = 0; i < requests.size(); ++i) {
        const RequestHot &hot = requestHot[i];
        bool affected = false;
        for (uint32_t s = 0; s < hot.numStages; ++s) {
            if (stages[hot.firstStage + s].node == node) {
                affected = true;
                break;
            }
        }
        if (!affected)
            continue;
        restartRequest(static_cast<int>(i), node);
        ++metrics.requestsRestarted;
        restarted.push_back(static_cast<int>(i));
    }
    for (auto it = restarted.rbegin(); it != restarted.rend(); ++it)
        fair.requeueFront(tenantOf(*it), *it);

    purgeStaleQueuedWork();
    tryAdmit();
}

void
ClusterSimulator::restartRequest(int request_index, int skip_node)
{
    RequestState &rs = requests[static_cast<size_t>(request_index)];
    RequestHot &hot = requestHot[static_cast<size_t>(request_index)];
    // Release exactly what this request wrote at each live stage; the
    // skipped (failed) node's KV was already wiped wholesale. One
    // request's teardown can never drain KV accounted to others.
    for (uint32_t s = 0; s < hot.numStages; ++s) {
        Stage &stage = stages[hot.firstStage + s];
        if (stage.node == skip_node)
            continue;
        NodeState &state = nodes[stage.node];
        state.kvUsed = std::max(0.0, state.kvUsed - stage.kvWritten);
        stage.kvWritten = 0.0;
    }
    finishPipeline(request_index);
    const int t = tenantOf(request_index);
    fair.onFinished(t);
    rs.restartedEver = true;
    hot.generated = 0;
    rs.firstTokenTime = -1.0;
    ++hot.epoch;
    // It will be admitted again.
    --metrics.requestsAdmitted;
    --metrics.tenantStats[static_cast<size_t>(t)].requestsAdmitted;
}

void
ClusterSimulator::purgeStaleQueuedWork()
{
    // Purge work of torn-down requests still queued at live nodes; a
    // dead node's inbox is empty.
    for (size_t node = 0; node < nodes.size(); ++node) {
        NodeState &state = nodes[node];
        inboxes.takeQueued(static_cast<int>(node), [&](const WorkItem &item) {
            if (requestHot[item.request].epoch == item.epoch)
                return InboxPool::Take::Leave;
            --state.inFlight;
            return InboxPool::Take::Remove;
        });
        HELIX_ASSERT(state.inFlight >= 0);
    }
}

void
ClusterSimulator::onNodeRecovery(int node)
{
    NodeState &state = nodes[node];
    if (!state.dead)
        return;
    // The node rejoins with empty KV, queue and inbox: nothing is sent
    // to a dead node (checkInboxes), and its pre-failure work was
    // already restarted elsewhere. The epoch bumped at failure keeps
    // any still-in-flight BatchDone of the old life stale, and a wake
    // of the old life delivers nothing of its own.
    inboxes.checkInboxes(nodes);
    state.dead = false;
    state.running.clear();
    state.inFlight = 0;
    state.kvUsed = 0.0;
    state.ewmaThroughput = 0.0;
    state.ewmaSpeed = 1.0;
    state.ewmaUpdatedAt = now;

    // Re-solve with the node back in the graph and swap the restored
    // flows into the scheduler, then retry the backlog: requests that
    // were waiting on capacity can now route through the rejoined
    // node.
    resolveTopology(node, ChurnEvent::Kind::Recover);
    tryAdmit();
}

void
ClusterSimulator::dispatch(const Event &event)
{
    switch (event.kind) {
      case Event::Kind::Arrival: {
        ++metrics.requestsArrived;
        const int t = tenantOf(event.item.request);
        ++metrics.tenantStats[static_cast<size_t>(t)].requestsArrived;
        fair.enqueue(t, event.item.request);
        tryAdmit();
        break;
      }
      case Event::Kind::WorkDelivery:
        // A wake: deliver the inbox up to its entry. A stale item, or
        // prompts all deferred for KV, can leave the node idle.
        deliverWork(event.node);
        if (!inboxes.busy(event.node))
            wakeHead(event.node);
        break;
      case Event::Kind::TokenDelivery:
        onTokenAtCoordinator(event.item.request, event.item.epoch);
        break;
      case Event::Kind::BatchDone:
        finishBatch(event.node, event.item.epoch);
        break;
      case Event::Kind::NodeFailure:
        onNodeFailure(event.node);
        break;
      case Event::Kind::NodeRecovery:
        onNodeRecovery(event.node);
        break;
      case Event::Kind::KvRelease:
        applyKvRelease(event.node, event.kvBytes, event.item.epoch);
        break;
      case Event::Kind::Preempt:
        applyPreempt(event);
        break;
    }
}

void
ClusterSimulator::runEventLoop(const std::vector<ChurnEvent> &churn,
                               double end_time)
{
    for (const ChurnEvent &event : churn) {
        Event ev;
        ev.kind = event.kind == ChurnEvent::Kind::Fail
                      ? Event::Kind::NodeFailure
                      : Event::Kind::NodeRecovery;
        ev.node = event.node;
        scheduleEvent(event.atSeconds, ev);
    }

    // Arrivals in eventBefore order: by time, then by request index.
    auto arrival_time = [this](int request) {
        return std::max(traceRequests[request].arrivalS, 0.0);
    };
    std::vector<int> arrivals(requests.size());
    std::iota(arrivals.begin(), arrivals.end(), 0);
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [&arrival_time](int a, int b) {
                         return arrival_time(a) < arrival_time(b);
                     });
    size_t cursor = 0;
    auto schedule_next_arrival = [&]() {
        if (cursor == arrivals.size())
            return;
        Event ev;
        ev.kind = Event::Kind::Arrival;
        ev.item.request = arrivals[cursor++];
        scheduleEvent(arrival_time(ev.item.request), ev);
    };

    schedule_next_arrival();
    while (!events.empty()) {
        dispatching = events.pop();
        if (dispatching.time > end_time)
            break;
        now = dispatching.time;
        if (dispatching.kind == Event::Kind::Arrival)
            schedule_next_arrival();
        dispatch(dispatching);
    }
}

SimMetrics
ClusterSimulator::run(const std::vector<trace::Request> &request_list)
{
    HELIX_ASSERT(!ran);
    ran = true;
    traceRequests = request_list.data();
    requests.resize(request_list.size());
    requestHot.resize(request_list.size());
    for (size_t i = 0; i < request_list.size(); ++i)
        requestHot[i].promptLen = request_list[i].promptLen;
    // Room for every pipeline that can be in flight at once, each of
    // at most one stage per node and per layer.
    const auto longest = static_cast<size_t>(std::min(
        profiler.modelSpec().numLayers, static_cast<int>(nodes.size())));
    stages.reserve(
        std::min(static_cast<size_t>(maxActive), request_list.size()) *
        longest);

    scheduler::FairShareController::Config fc;
    fc.tenants = cfg.tenants;
    fc.starvationTolerance = cfg.starvationTolerance;
    fc.preemptionTimeoutS = cfg.preemptionTimeoutS;
    fair = scheduler::FairShareController(std::move(fc));
    metrics.tenantStats.resize(static_cast<size_t>(fair.numTenants()));
    for (int t = 0; t < fair.numTenants(); ++t) {
        const scheduler::Tenant &tenant = fair.tenant(t);
        SimMetrics::TenantStat &stat =
            metrics.tenantStats[static_cast<size_t>(t)];
        stat.name = tenant.name;
        stat.weight = tenant.weight;
        stat.sloTtftS = tenant.sloTtftS;
        stat.sloTpotS = tenant.sloTpotS;
    }
    if (fair.active()) {
        // Preemption decisions take effect one minimum link latency
        // later (see Event::Kind::Preempt).
        preemptDelayS = minLinkLatency(clusterRef);
        if (!std::isfinite(preemptDelayS))
            preemptDelayS = 0.0;
        // Shares divide the live serving capacity: the topology
        // manager's current max-flow, re-fed on every churn or drift
        // re-solve.
        fair.setCapacity(topologyManager().currentFlow());
    }

    const double end_time = cfg.warmupSeconds + cfg.measureSeconds;
    runEventLoop(churnSchedule(cfg, static_cast<int>(nodes.size())),
                 end_time);
    inboxes.checkInboxes(nodes);

    metrics.simulatedSeconds = cfg.measureSeconds;
    metrics.decodeThroughput =
        static_cast<double>(metrics.decodeTokensInWindow) /
        cfg.measureSeconds;
    metrics.promptThroughput =
        static_cast<double>(metrics.promptTokensInWindow) /
        cfg.measureSeconds;
    double util = 0.0;
    int counted = 0;
    for (const NodeState &state : nodes) {
        if (state.utilSamples > 0) {
            util += state.utilSum /
                    static_cast<double>(state.utilSamples);
            ++counted;
        }
    }
    metrics.avgKvUtilization = counted > 0 ? util / counted : 0.0;
    metrics.nodeStats.resize(nodes.size());
    for (size_t i = 0; i < nodes.size(); ++i) {
        const NodeState &state = nodes[i];
        SimMetrics::NodeStat &stat = metrics.nodeStats[i];
        stat.batches = state.batches;
        stat.itemsProcessed = state.itemsProcessed;
        stat.tokensProcessed = state.tokensProcessed;
        stat.busySeconds = state.busySeconds;
        stat.kvUtilization =
            state.utilSamples > 0
                ? state.utilSum / static_cast<double>(state.utilSamples)
                : 0.0;
    }
    metrics.linkStats = links.stats();
    // Without arbitration the one tenant's counters repeat the run's.
    if (!fair.active())
        metrics.tenantStats.clear();
    double sum = 0.0;
    double sum_sq = 0.0;
    for (SimMetrics::TenantStat &stat : metrics.tenantStats) {
        stat.decodeThroughput =
            static_cast<double>(stat.decodeTokensInWindow) /
            cfg.measureSeconds;
        if (stat.sloTtftS > 0.0 && stat.ttftSamples > 0) {
            stat.ttftAttainment =
                static_cast<double>(stat.ttftMet) /
                static_cast<double>(stat.ttftSamples);
        }
        if (stat.sloTpotS > 0.0 && stat.tpotSamples > 0) {
            stat.tpotAttainment =
                static_cast<double>(stat.tpotMet) /
                static_cast<double>(stat.tpotSamples);
        }
        double x =
            stat.weight > 0.0 ? stat.decodeThroughput / stat.weight : 0.0;
        sum += x;
        sum_sq += x * x;
    }
    // Jain index over weight-normalized throughput: 1.0 when every
    // tenant gets throughput proportional to its weight.
    if (sum_sq > 0.0) {
        metrics.jainIndex =
            sum * sum /
            (static_cast<double>(metrics.tenantStats.size()) * sum_sq);
    }
    return metrics;
}

} // namespace sim
} // namespace helix
