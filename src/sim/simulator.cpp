#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "scheduler/topology_manager.h"
#include "util/logging.h"

namespace helix {
namespace sim {

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
      placementRef(placement_spec), sched(scheduler_ref), cfg(config)
{
    const int n = cluster_spec.numNodes();
    nodes.resize(n);
    for (int i = 0; i < n; ++i) {
        nodes[i].layersHeld = placement_spec[i].count;
        nodes[i].kvCapacity =
            placement_spec[i].count > 0
                ? static_cast<double>(profiler.kvCapacityBytes(
                      cluster_spec.node(i), placement_spec[i].count))
                : 0.0;
        nodes[i].running.reserve(
            static_cast<size_t>(std::max(1, cfg.maxBatchRequests)));
    }
    if (cfg.maxActiveRequests == 0) {
        // Derive the engine-level concurrency bound from aggregate KV
        // capacity: one request occupies (context x layers) KV token
        // slots spread over its pipeline.
        double token_layers = 0.0;
        for (const NodeState &state : nodes) {
            token_layers +=
                state.kvCapacity /
                profiler.modelSpec().kvBytesPerTokenPerLayer();
        }
        double per_request = profiler.params().planningContextLen *
                             profiler.modelSpec().numLayers;
        cfg.maxActiveRequests = std::max(
            1, static_cast<int>(token_layers / per_request));
    }

    side = n + 1;
    links.resize(static_cast<size_t>(side) * side);
    for (int from = cluster::kCoordinator; from < n; ++from) {
        for (int to = cluster::kCoordinator; to < n; ++to) {
            if (from == to)
                continue;
            LinkState &ls = linkState(from, to);
            ls.stat.from = from;
            ls.stat.to = to;
            const cluster::LinkSpec &spec = cluster_spec.link(from, to);
            ls.bytesPerSecond = spec.bytesPerSecond();
            ls.latencyS = spec.latencyS;
        }
    }
}

ClusterSimulator::~ClusterSimulator() = default;

ClusterSimulator::LinkState &
ClusterSimulator::linkState(int from, int to)
{
    return links[static_cast<size_t>(from + 1) * side + (to + 1)];
}

bool
ClusterSimulator::eventBefore(const Event &a, const Event &b)
{
    // helix-lint: allow(float-eq) exact-time ties are real (symmetric workloads produce them) and fall through to the content key
    if (a.time != b.time)
        return a.time < b.time;
    if (a.kind != b.kind)
        return static_cast<int>(a.kind) < static_cast<int>(b.kind);
    if (a.node != b.node)
        return a.node < b.node;
    if (a.item.request != b.item.request)
        return a.item.request < b.item.request;
    if (a.item.stage != b.item.stage)
        return a.item.stage < b.item.stage;
    if (a.item.epoch != b.item.epoch)
        return a.item.epoch < b.item.epoch;
    // Unreachable for distinct coexisting events (see the declaration
    // comment); kept so the order stays total for duplicates, e.g. two
    // identical churn entries in the schedule.
    return a.seq < b.seq;
}

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
ClusterSimulator::contextLen(const RequestState &rs) const
{
    return static_cast<double>(rs.request.promptLen + rs.generated);
}

int
ClusterSimulator::queueLength(int node) const
{
    return nodes[node].inFlight;
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
    double tau = std::max(1e-9, cfg.throughputEwmaTauS);
    double idle = std::max(0.0, now - state.ewmaUpdatedAt);
    return state.ewmaThroughput * std::exp(-idle / tau);
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

void
ClusterSimulator::tryAdmit()
{
    if (fair != nullptr) {
        // Tenancy active: admission is arbitrated per tenant class.
        // The single-queue loop below stays byte-identical for runs
        // without tenants.
        tryAdmitFair();
        return;
    }
    while (!pending.empty()) {
        long active = metrics.requestsAdmitted -
                      metrics.requestsCompleted;
        if (cfg.maxActiveRequests > 0 &&
            active >= cfg.maxActiveRequests) {
            break; // Engine-level KV backpressure.
        }
        int idx = pending.front();
        RequestState &rs = requests[idx];
        auto pipeline = sched.schedule(rs.request, *this);
        if (!pipeline) {
            // Nothing admissible right now. If the cluster is
            // completely idle AND fully alive, this request can never
            // be served (it exceeds every node's standalone
            // capacity): reject it to avoid blocking the queue
            // forever. With a dead node the inference does not hold —
            // a scheduled recover event may restore the missing stage
            // — so the backlog is held instead of rejected.
            bool idle = true;
            bool any_dead = false;
            for (const NodeState &state : nodes) {
                if (state.dead) {
                    any_dead = true;
                } else if (state.busy || state.inFlight > 0) {
                    idle = false;
                    break;
                }
            }
            long still_active = metrics.requestsAdmitted -
                                metrics.requestsCompleted;
            if (idle && !any_dead && still_active <= 0) {
                ++metrics.requestsRejected;
                pending.pop_front();
                continue;
            }
            break;
        }
        HELIX_ASSERT(scheduler::pipelineValid(
            *pipeline, profiler.modelSpec().numLayers));
        pending.pop_front();
        rs.pipeline = std::move(*pipeline);
        rs.kvWritten.assign(rs.pipeline.size(), 0.0);
        rs.admitted = true;
        ++metrics.requestsAdmitted;
        sched.onRequestAdmitted(rs.request, rs.pipeline);
        // Dispatch the prompt: the coordinator ships the token ids of
        // the prompt to the first stage.
        int first_node = rs.pipeline.front().node;
        double bytes = static_cast<double>(rs.request.promptLen) *
                       profiler.tokenBytes();
        Event ev;
        ev.kind = Event::Kind::WorkDelivery;
        ev.node = first_node;
        ev.item = WorkItem{idx, 0, rs.request.promptLen, rs.epoch,
                           true, true};
        scheduleEvent(
            transferDelivery(cluster::kCoordinator, first_node, bytes),
            ev);
    }
}

int
ClusterSimulator::tenantOf(int request_index) const
{
    const int t =
        requests[static_cast<size_t>(request_index)].request.tenant;
    if (fair == nullptr || t < 0 || t >= fair->numTenants())
        return 0;
    return t;
}

void
ClusterSimulator::tryAdmitFair()
{
    for (;;) {
        long active = metrics.requestsAdmitted -
                      metrics.requestsCompleted;
        if (cfg.maxActiveRequests > 0 &&
            active >= cfg.maxActiveRequests) {
            break; // Engine-level KV backpressure.
        }
        // The most under-share demanding tenant goes first; tenants
        // over share beyond tolerance are held while anyone else sits
        // below share (weighted max-min, scheduler/fair_share.h).
        int idx = fair->popNext(now);
        if (idx < 0)
            break; // Every queue is empty or held.
        int t = tenantOf(idx);
        RequestState &rs = requests[static_cast<size_t>(idx)];
        auto pipeline = sched.schedule(rs.request, *this);
        if (!pipeline) {
            // Same can-never-serve inference as the single-queue
            // path: reject only when the idle, fully-alive cluster
            // provably cannot serve this request; otherwise hold the
            // backlog (head of its tenant's queue).
            bool idle = true;
            bool any_dead = false;
            for (const NodeState &state : nodes) {
                if (state.dead) {
                    any_dead = true;
                } else if (state.busy || state.inFlight > 0) {
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
            fair->requeueFront(t, idx);
            break;
        }
        HELIX_ASSERT(scheduler::pipelineValid(
            *pipeline, profiler.modelSpec().numLayers));
        rs.pipeline = std::move(*pipeline);
        rs.kvWritten.assign(rs.pipeline.size(), 0.0);
        rs.admitted = true;
        ++metrics.requestsAdmitted;
        ++metrics.tenantStats[static_cast<size_t>(t)]
              .requestsAdmitted;
        fair->onAdmitted(t);
        sched.onRequestAdmitted(rs.request, rs.pipeline);
        int first_node = rs.pipeline.front().node;
        double bytes = static_cast<double>(rs.request.promptLen) *
                       profiler.tokenBytes();
        Event ev;
        ev.kind = Event::Kind::WorkDelivery;
        ev.node = first_node;
        ev.item = WorkItem{idx, 0, rs.request.promptLen, rs.epoch,
                           true, true};
        scheduleEvent(
            transferDelivery(cluster::kCoordinator, first_node, bytes),
            ev);
    }
    maybeSchedulePreempt();
}

void
ClusterSimulator::maybeSchedulePreempt()
{
    if (fair == nullptr)
        return;
    int victim_class = fair->checkPreemption(now);
    if (victim_class < 0)
        return;
    // Newest admitted request of the victim class (LIFO victim
    // choice, like ytsaurus's preempt-newest-jobs: the newest request
    // has the least sunk prefill work to throw away). Request indices
    // follow arrival order, so scan from the back.
    int victim = -1;
    for (size_t i = requests.size(); i > 0; --i) {
        const RequestState &rs = requests[i - 1];
        if (!rs.admitted || rs.finished || rs.preemptScheduled)
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
    ev.item.epoch = requests[static_cast<size_t>(victim)].epoch;
    scheduleEvent(now + preemptDelayS, ev);
}

void
ClusterSimulator::applyPreempt(const Event &event)
{
    const int idx = event.item.request;
    RequestState &rs = requests[static_cast<size_t>(idx)];
    rs.preemptScheduled = false;
    if (rs.finished || !rs.admitted || rs.epoch != event.item.epoch)
        return; // Finished or torn down since the decision: stale.
    const int t = tenantOf(idx);
    restartRequest(idx, -1);
    ++metrics.requestsPreempted;
    ++metrics.tenantStats[static_cast<size_t>(t)].requestsPreempted;
    purgeStaleQueuedWork();
    // Head of its tenant's queue: the request is re-admitted first
    // once its tenant is back within share.
    fair->requeueFront(t, idx);
    tryAdmit();
}

double
ClusterSimulator::transferDelivery(int from, int to, double bytes)
{
    LinkState &ls = linkState(from, to);
    // Interactive messages (single-token activations, output tokens)
    // ride a priority channel so they do not serialize behind bulk
    // prompt transfers, mirroring how real transports interleave
    // small messages with large streams.
    bool bulk = bytes > 16.0 * profiler.activationBytes();
    double &busy_until =
        bulk ? ls.bulkBusyUntil : ls.interactiveBusyUntil;
    double start = std::max(now, busy_until);
    double tx = bytes / ls.bytesPerSecond;
    busy_until = start + tx;
    if (cfg.collectLinkStats) {
        double queue_delay = start - now;
        ++ls.stat.transfers;
        ls.stat.totalBytes += bytes;
        ls.stat.busySeconds += tx;
        ls.stat.maxQueueDelayS =
            std::max(ls.stat.maxQueueDelayS, queue_delay);
        ls.stat.totalQueueDelayS += queue_delay;
    }
    return start + tx + ls.latencyS;
}

void
ClusterSimulator::enqueueWork(int node, const WorkItem &item)
{
    NodeState &state = nodes[node];
    if (state.dead || requests[item.request].epoch != item.epoch)
        return; // Stale delivery from before a node failure.
    state.queue.push_back(item);
    ++state.inFlight;
    if (!state.busy)
        startBatch(node);
}

void
ClusterSimulator::startBatch(int node)
{
    NodeState &state = nodes[node];
    HELIX_ASSERT(!state.busy);
    HELIX_ASSERT(!state.queue.empty());
    HELIX_ASSERT(state.running.empty());

    // Best-effort dynamic batching with vLLM-style KV backpressure:
    // decode items always run; a prompt item joins the batch only if
    // the node's KV can hold the request's context (otherwise it waits
    // in the queue until completions free pages). A prompt is always
    // accepted on an otherwise-empty node so oversized requests make
    // progress (with the swap penalty) instead of deadlocking.
    const model::TransformerSpec &spec = profiler.modelSpec();
    std::vector<WorkItem> &batch = state.running;
    std::vector<WorkItem> &deferred = deferredScratch;
    deferred.clear();
    double reserved = 0.0;
    int token_budget = cfg.maxBatchTokens;
    while (!state.queue.empty() && token_budget > 0 &&
           static_cast<int>(batch.size()) < cfg.maxBatchRequests) {
        WorkItem item = state.queue.front();
        state.queue.pop_front();
        if (item.isPrompt) {
            const RequestState &rs = requests[item.request];
            // KV admission applies to the first chunk of a prompt
            // (when the request becomes resident on this node).
            bool first_chunk =
                item.numTokens == rs.request.promptLen;
            if (first_chunk) {
                double need =
                    (static_cast<double>(rs.request.promptLen) + 1.0) *
                    spec.kvBytesPerTokenPerLayer() *
                    rs.pipeline[item.stage].numLayers();
                bool node_empty =
                    state.kvUsed <= 0.0 && reserved <= 0.0;
                if (!node_empty &&
                    state.kvUsed + reserved + need >
                        state.kvCapacity) {
                    deferred.push_back(item);
                    continue;
                }
                reserved += need;
            }
            if (item.numTokens > token_budget) {
                // Chunked prefill: run what fits, leave the rest at
                // the head of the queue for the next iteration.
                WorkItem chunk = item;
                chunk.numTokens = token_budget;
                chunk.finalChunk = false;
                item.numTokens -= token_budget;
                state.queue.push_front(item);
                batch.push_back(chunk);
                token_budget = 0;
                break;
            }
            token_budget -= item.numTokens;
        } else {
            token_budget -= 1;
        }
        batch.push_back(item);
    }
    // Put deferred prompts back at the front, preserving arrival
    // order (ahead of any split remainder they preceded).
    for (size_t i = deferred.size(); i > 0; --i)
        state.queue.push_front(deferred[i - 1]);
    if (batch.empty())
        return; // All queued prompts are waiting for KV pages.
    state.busy = true;

    // Roofline batch time: all FLOPs at mfu, one pass over resident
    // weights, plus KV reads for decode items.
    const cluster::NodeSpec &hw = clusterRef.node(node);
    const cluster::CostModelParams &cost = profiler.params();
    double eff_flops = hw.totalTflops() * 1e12 * cost.mfu;
    double eff_bw = hw.totalMemBandwidthGBs() * 1e9 *
                    cost.memBwEfficiency;
    double compute_s = 0.0;
    double kv_bytes = 0.0;
    for (const WorkItem &item : batch) {
        const RequestState &rs = requests[item.request];
        const scheduler::PipelineStage &stage =
            rs.pipeline[item.stage];
        double ctx = contextLen(rs);
        double flops_per_token =
            spec.flopsPerTokenPerLayer() +
            spec.attentionFlopsPerToken(static_cast<int>(
                item.isPrompt ? ctx / 2 : ctx));
        compute_s += static_cast<double>(item.numTokens) *
                     stage.numLayers() * flops_per_token / eff_flops;
        if (!item.isPrompt) {
            kv_bytes += ctx * spec.kvBytesPerTokenPerLayer() *
                        stage.numLayers();
        }
    }
    double weight_bytes =
        static_cast<double>(spec.layerBytes()) * state.layersHeld;
    double memory_s = (weight_bytes + kv_bytes) / eff_bw;
    double batch_s = std::max(compute_s, memory_s) +
                     cost.iterationOverheadS;
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
        batch_s *= 1.0 + cfg.kvSwapPenalty * over;
    }

    // Sample KV utilization for metrics.
    if (state.kvCapacity > 0.0 && inWindow(now)) {
        state.utilSum += state.kvUsed / state.kvCapacity;
        ++state.utilSamples;
    }

    Event ev;
    ev.kind = Event::Kind::BatchDone;
    ev.node = node;
    ev.batchSeconds = batch_s;
    ev.modelSeconds = model_s;
    // Stamp the node's liveness epoch so a failure (and possible
    // recovery) between now and completion invalidates this batch.
    ev.item.epoch = state.epoch;
    scheduleEvent(now + batch_s, ev);
}

void
ClusterSimulator::finishBatch(int node, double batch_seconds,
                              double model_seconds,
                              uint32_t node_epoch)
{
    NodeState &state = nodes[node];
    if (state.epoch != node_epoch) {
        // The node failed while this batch was in flight (it may even
        // have recovered since): the failure already cleared running
        // and restarted the affected requests, and any batch running
        // now belongs to the new epoch. Drop the stale completion.
        return;
    }
    state.busy = false;

    const model::TransformerSpec &spec = profiler.modelSpec();
    long tokens_processed = 0;
    long items_processed = 0;
    for (const WorkItem &item : state.running) {
        RequestState &rs = requests[item.request];
        if (rs.epoch != item.epoch) {
            // The request was restarted (node churn) while this item
            // ran. Its KV on this node was already released; only the
            // in-flight counter still holds its slot.
            if (item.finalChunk)
                --state.inFlight;
            continue;
        }
        const scheduler::PipelineStage &stage =
            rs.pipeline[item.stage];
        tokens_processed += item.numTokens;
        ++items_processed;

        // KV written by this stage: the processed prompt chunk during
        // the prompt phase, one token per decode iteration.
        double kv_delta = static_cast<double>(item.numTokens) *
                          spec.kvBytesPerTokenPerLayer() *
                          stage.numLayers();
        state.kvUsed += kv_delta;
        rs.kvWritten[item.stage] += kv_delta;

        if (!item.finalChunk) {
            // Intermediate prefill chunk: the request stays at this
            // node; its remainder is already queued.
            continue;
        }
        --state.inFlight;

        bool last_stage =
            item.stage + 1 == static_cast<int>(rs.pipeline.size());
        if (last_stage) {
            Event ev;
            ev.kind = Event::Kind::TokenDelivery;
            ev.item.request = item.request;
            ev.item.epoch = item.epoch;
            scheduleEvent(transferDelivery(node, cluster::kCoordinator,
                                           profiler.tokenBytes()),
                          ev);
        } else {
            const scheduler::PipelineStage &next =
                rs.pipeline[item.stage + 1];
            // A prompt forwards in full once its last chunk finishes
            // here (earlier chunks produced activations that are
            // shipped together with the final one).
            int tokens = item.isPrompt ? rs.request.promptLen
                                       : item.numTokens;
            double bytes = static_cast<double>(tokens) *
                           profiler.activationBytes();
            Event ev;
            ev.kind = Event::Kind::WorkDelivery;
            ev.node = next.node;
            ev.item = WorkItem{item.request, item.stage + 1, tokens,
                               item.epoch, item.isPrompt, true};
            scheduleEvent(transferDelivery(node, next.node, bytes),
                          ev);
        }
        // Count a prompt completion once per request: a prompt rerun
        // after node churn is recovery work, not new served tokens.
        if (item.isPrompt && last_stage && !rs.promptCounted) {
            rs.promptCounted = true;
            if (inWindow(now))
                metrics.promptTokensInWindow += rs.request.promptLen;
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
        1.0 - std::exp(-batch_seconds /
                       std::max(1e-9, cfg.throughputEwmaTauS));
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

    if (!state.queue.empty())
        startBatch(node);
}

void
ClusterSimulator::onTokenAtCoordinator(int request, uint32_t epoch)
{
    RequestState &rs = requests[request];
    if (rs.epoch != epoch)
        return; // Token from a pipeline that was torn down by churn.
    ++rs.generated;
    // Fair-share usage is charged per physically generated token —
    // including churn/preemption regeneration, which consumes real
    // capacity just the same.
    if (fair != nullptr)
        fair->noteDecodeToken(tenantOf(request), now);
    // After a churn restart the pipeline regenerates tokens it had
    // already delivered; only tokens beyond the high-water mark are
    // new output.
    bool new_token = rs.generated > rs.peakGenerated;
    if (new_token)
        rs.peakGenerated = rs.generated;
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
            inWindow(rs.request.arrivalS)) {
            metrics.promptLatency.add(now - rs.request.arrivalS);
            if (fair != nullptr) {
                // Per-tenant TTFT SLO sample, same mixed-window and
                // restart guards as the latency distribution.
                SimMetrics::TenantStat &stat =
                    metrics.tenantStats[static_cast<size_t>(
                        tenantOf(request))];
                if (stat.sloTtftS > 0.0) {
                    ++stat.ttftSamples;
                    if (now - rs.request.arrivalS <= stat.sloTtftS)
                        ++stat.ttftMet;
                }
            }
        }
    } else if (new_token && inWindow(now)) {
        ++metrics.decodeTokensInWindow;
        if (fair != nullptr) {
            ++metrics
                  .tenantStats[static_cast<size_t>(tenantOf(request))]
                  .decodeTokensInWindow;
        }
    }

    if (rs.generated >= rs.request.outputLen) {
        // Request complete: notify every stage to release exactly the
        // KV this request wrote there. The release is an event
        // delivered after the coordinator->node propagation latency,
        // not an instantaneous cross-node write, because that is what
        // a real control plane does.
        rs.finishTime = now;
        rs.finished = true;
        ++metrics.requestsCompleted;
        if (fair != nullptr) {
            int t = tenantOf(request);
            ++metrics.tenantStats[static_cast<size_t>(t)]
                  .requestsCompleted;
            fair->onFinished(t);
        }
        for (size_t s = 0; s < rs.pipeline.size(); ++s) {
            int stage_node = rs.pipeline[s].node;
            Event ev;
            ev.kind = Event::Kind::KvRelease;
            ev.node = stage_node;
            ev.kvBytes = rs.kvWritten[s];
            ev.item.request = request;
            ev.item.stage = static_cast<int>(s);
            // Liveness epoch: a failure between now and delivery
            // already zeroed the node's KV wholesale.
            ev.item.epoch = nodes[stage_node].epoch;
            scheduleEvent(
                now +
                    linkState(cluster::kCoordinator, stage_node)
                        .latencyS,
                ev);
            rs.kvWritten[s] = 0.0;
        }
        sched.onRequestFinished(rs.request, rs.pipeline);
        // Same mixed-window guard as prompt latency: the decode
        // interval is [firstToken, finish]; both ends must be
        // in-window for the sample to be entirely measured.
        // Restarted requests are excluded — their interval spans the
        // failure and recovery, not steady-state decode.
        if (!rs.restartedEver && rs.request.outputLen > 1 &&
            inWindow(rs.finishTime) && inWindow(rs.firstTokenTime)) {
            double tpot = (rs.finishTime - rs.firstTokenTime) /
                          (rs.request.outputLen - 1);
            metrics.decodeLatency.add(tpot);
            if (fair != nullptr) {
                SimMetrics::TenantStat &stat =
                    metrics.tenantStats[static_cast<size_t>(
                        tenantOf(request))];
                if (stat.sloTpotS > 0.0) {
                    ++stat.tpotSamples;
                    if (tpot <= stat.sloTpotS)
                        ++stat.tpotMet;
                }
            }
        }
        tryAdmit();
        return;
    }

    // Schedule the next decode iteration over the same pipeline: the
    // coordinator sends the newly sampled token to the first stage.
    int first_node = rs.pipeline.front().node;
    Event ev;
    ev.kind = Event::Kind::WorkDelivery;
    ev.node = first_node;
    ev.item = WorkItem{request, 0, 1, rs.epoch, false, true};
    scheduleEvent(transferDelivery(cluster::kCoordinator, first_node,
                                   profiler.tokenBytes()),
                  ev);
    // Starvation check on every delivered token: preemption decisions
    // ride the coordinator's natural cadence. May preempt the very
    // request whose next decode was just scheduled — the epoch bump
    // then makes that delivery stale.
    if (fair != nullptr)
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
    if (!state.busy && !state.queue.empty())
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
    scheduler::TopologyManager &manager = topologyManager();
    double flow = manager.setNodeAlive(
        node, kind == ChurnEvent::Kind::Recover);
    // Atomic swap from the scheduler's point of view: no scheduling
    // decision can observe a half-updated weight set, because the
    // rebind happens inside this event before any walk runs.
    sched.onTopologyChange(manager.current());
    metrics.flowEvents.push_back(
        {now, node, kind, flow, ResolveKind::Repair});
    // Fair shares divide the LIVE serving capacity.
    if (fair != nullptr)
        fair->setCapacity(flow);
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
    if (state.busySeconds < cfg.throughputEwmaTauS)
        return;
    scheduler::TopologyManager &manager = topologyManager();
    double planned = manager.plannedNodeFlow(node);
    if (planned <= flow::kFlowEps)
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
    double flow = manager.setNodeCapacity(node, observed);
    sched.onTopologyChange(manager.current());
    metrics.flowEvents.push_back({now, node, ChurnEvent::Kind::Drift,
                                  flow, ResolveKind::Drift});
    if (fair != nullptr)
        fair->setCapacity(flow);
}

void
ClusterSimulator::onNodeFailure(int node)
{
    NodeState &failed = nodes[node];
    if (failed.dead)
        return;
    failed.dead = true;
    ++failed.epoch;
    failed.queue.clear();
    failed.running.clear();
    failed.busy = false;
    failed.inFlight = 0;
    failed.kvUsed = 0.0;
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
        RequestState &rs = requests[i];
        if (!rs.admitted || rs.finished)
            continue;
        bool affected = false;
        for (const scheduler::PipelineStage &stage : rs.pipeline) {
            if (stage.node == node) {
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
    for (auto it = restarted.rbegin(); it != restarted.rend(); ++it) {
        if (fair != nullptr)
            fair->requeueFront(tenantOf(*it), *it);
        else
            pending.push_front(*it);
    }

    purgeStaleQueuedWork();
    tryAdmit();
}

void
ClusterSimulator::restartRequest(int request_index, int skip_node)
{
    RequestState &rs = requests[static_cast<size_t>(request_index)];
    // Release exactly what this request wrote at each live stage; the
    // skipped (failed) node's KV was already wiped wholesale. One
    // request's teardown can never drain KV accounted to others.
    for (size_t s = 0; s < rs.pipeline.size(); ++s) {
        if (rs.pipeline[s].node == skip_node)
            continue;
        NodeState &state = nodes[rs.pipeline[s].node];
        state.kvUsed = std::max(0.0, state.kvUsed - rs.kvWritten[s]);
        rs.kvWritten[s] = 0.0;
    }
    sched.onRequestFinished(rs.request, rs.pipeline);
    if (fair != nullptr)
        fair->onPreempted(tenantOf(request_index));
    rs.admitted = false;
    rs.restartedEver = true;
    rs.generated = 0;
    rs.firstTokenTime = -1.0;
    ++rs.epoch;
    --metrics.requestsAdmitted; // It will be admitted again.
}

void
ClusterSimulator::purgeStaleQueuedWork()
{
    // Purge work of torn-down requests still queued at live nodes.
    for (NodeState &state : nodes) {
        if (state.dead || state.queue.empty())
            continue;
        size_t before = state.queue.size();
        state.queue.erase(
            std::remove_if(state.queue.begin(), state.queue.end(),
                           [this](const WorkItem &item) {
                               return requests[item.request].epoch !=
                                      item.epoch;
                           }),
            state.queue.end());
        state.inFlight -=
            static_cast<int>(before - state.queue.size());
        HELIX_ASSERT(state.inFlight >= 0);
    }
}

void
ClusterSimulator::onNodeRecovery(int node)
{
    NodeState &state = nodes[node];
    if (!state.dead)
        return;
    // The node rejoins with empty KV and queue: nothing was enqueued
    // while it was dead (enqueueWork drops deliveries to dead nodes),
    // and its pre-failure work was already restarted elsewhere. The
    // epoch bumped at failure keeps any still-in-flight BatchDone of
    // the old life stale.
    state.dead = false;
    state.queue.clear();
    state.running.clear();
    state.busy = false;
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
      case Event::Kind::Arrival:
        ++metrics.requestsArrived;
        if (fair != nullptr) {
            int t = tenantOf(event.item.request);
            ++metrics.tenantStats[static_cast<size_t>(t)]
                  .requestsArrived;
            fair->enqueue(t, event.item.request);
        } else {
            pending.push_back(event.item.request);
        }
        tryAdmit();
        break;
      case Event::Kind::WorkDelivery:
        enqueueWork(event.node, event.item);
        break;
      case Event::Kind::TokenDelivery:
        onTokenAtCoordinator(event.item.request, event.item.epoch);
        break;
      case Event::Kind::BatchDone:
        finishBatch(event.node, event.batchSeconds,
                    event.modelSeconds, event.item.epoch);
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

std::vector<ChurnEvent>
ClusterSimulator::churnSchedule() const
{
    // Invalid/drift entries are dropped up front. Ordering among
    // same-time events follows insertion order (duplicate entries tie
    // on the content key and fall through to the sequence number).
    std::vector<ChurnEvent> churn;
    for (const ChurnEvent &event : cfg.churnEvents) {
        if (event.node < 0 ||
            event.node >= static_cast<int>(nodes.size()) ||
            event.atSeconds < 0.0 ||
            event.kind == ChurnEvent::Kind::Drift)
            continue;
        churn.push_back(event);
    }
    return churn;
}

double
ClusterSimulator::minLinkLatency() const
{
    // Minimum propagation latency over every directed link, including
    // the coordinator rows.
    double best = std::numeric_limits<double>::infinity();
    const int n = static_cast<int>(nodes.size());
    for (int from = cluster::kCoordinator; from < n; ++from) {
        for (int to = cluster::kCoordinator; to < n; ++to) {
            if (from == to)
                continue;
            const LinkState &ls =
                links[static_cast<size_t>(from + 1) * side + (to + 1)];
            best = std::min(best, ls.latencyS);
        }
    }
    return best;
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
        return std::max(requests[static_cast<size_t>(request)]
                            .request.arrivalS,
                        0.0);
    };
    std::vector<int> arrivals(requests.size());
    std::iota(arrivals.begin(), arrivals.end(), 0);
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [&arrival_time](int a, int b) {
                         return arrival_time(a) < arrival_time(b);
                     });

    Event arrival;
    arrival.kind = Event::Kind::Arrival;
    size_t cursor = 0;
    for (;;) {
        Event next;
        const bool have_arrival = cursor < arrivals.size();
        if (have_arrival) {
            arrival.item.request = arrivals[cursor];
            arrival.time = arrival_time(arrival.item.request);
        }
        if (!events.empty() &&
            (!have_arrival || eventBefore(events.top(), arrival))) {
            next = events.top();
            events.pop();
        } else if (have_arrival) {
            next = arrival;
            ++cursor;
        } else {
            break;
        }
        if (next.time > end_time)
            break;
        now = next.time;
        dispatch(next);
    }
    // Drain the queue so a reused simulator starts clean.
    while (!events.empty())
        events.pop();
}

SimMetrics
ClusterSimulator::run(const std::vector<trace::Request> &request_list)
{
    metrics = SimMetrics{};
    requests.clear();
    requests.reserve(request_list.size());
    for (const trace::Request &req : request_list) {
        RequestState rs;
        rs.request = req;
        requests.push_back(std::move(rs));
    }

    if (cfg.tenants.size() >= 2) {
        scheduler::FairShareController::Config fc;
        fc.tenants = cfg.tenants;
        fc.starvationTolerance = cfg.starvationTolerance;
        fc.preemptionTimeoutS = cfg.preemptionTimeoutS;
        fc.usageTauS = cfg.throughputEwmaTauS;
        fair = std::make_unique<scheduler::FairShareController>(
            std::move(fc));
        // Preemption decisions take effect one minimum link latency
        // later (see Event::Kind::Preempt).
        preemptDelayS = minLinkLatency();
        if (!std::isfinite(preemptDelayS))
            preemptDelayS = 0.0;
        // Shares divide the live serving capacity: the topology
        // manager's current max-flow, re-fed on every churn or drift
        // re-solve.
        fair->setCapacity(topologyManager().currentFlow());
        metrics.tenantStats.resize(cfg.tenants.size());
        for (size_t t = 0; t < cfg.tenants.size(); ++t) {
            SimMetrics::TenantStat &stat = metrics.tenantStats[t];
            stat.name = cfg.tenants[t].name;
            stat.weight = cfg.tenants[t].weight;
            stat.sloTtftS = cfg.tenants[t].sloTtftS;
            stat.sloTpotS = cfg.tenants[t].sloTpotS;
        }
    } else {
        fair.reset();
    }

    const double end_time = cfg.warmupSeconds + cfg.measureSeconds;
    runEventLoop(churnSchedule(), end_time);

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
    if (cfg.collectLinkStats) {
        for (const LinkState &ls : links) {
            if (ls.stat.transfers > 0)
                metrics.linkStats.push_back(ls.stat);
        }
    }
    if (fair != nullptr) {
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
            double x = stat.weight > 0.0
                           ? stat.decodeThroughput / stat.weight
                           : 0.0;
            sum += x;
            sum_sq += x * x;
        }
        // Jain index over weight-normalized throughput: 1.0 when
        // every tenant gets throughput proportional to its weight.
        if (sum_sq > 0.0) {
            metrics.jainIndex =
                sum * sum /
                (static_cast<double>(metrics.tenantStats.size()) *
                 sum_sq);
        }
    }
    return metrics;
}

} // namespace sim
} // namespace helix
