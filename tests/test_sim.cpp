/**
 * @file
 * Tests for the discrete-event serving simulator: request accounting
 * conservation, throughput/latency sanity, KV occupancy invariants,
 * chunked prefill, link congestion statistics and links made only
 * for the connections admissions route over, backpressure, the
 * scheduler notifications around the stage table's range recycling,
 * the queue depths the shortest-queue scheduler observes, work still
 * in transit when its receiving node goes idle, the order in which a
 * KV-tight node starts queued work under chunking and churn purges,
 * the radix event queue's pop order against a binary heap, the inbox
 * pool against sorted per-node vectors, and the stage table's range
 * reuse.
 *
 * The event-queue, inbox and stage-table property tests draw their
 * schedules from fixed seeds; HELIX_FUZZ_ITERS rescales their instance
 * counts for soak runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <utility>

#include "cluster/cluster.h"
#include "cluster/generator.h"
#include "cluster/profiler.h"
#include "core/helix.h"
#include "model/transformer.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "scheduler/scheduler.h"
#include "sim/event_queue.h"
#include "sim/inbox.h"
#include "sim/simulator.h"
#include "sim/stage_table.h"
#include "sim_fingerprint.h"
#include "trace/trace.h"
#include "util/compare.h"
#include "util/random.h"

namespace helix {
namespace sim {
namespace {

using cluster::ClusterSpec;
using cluster::NodeSpec;
using cluster::Profiler;

/** Small 4-node fixture: two parallel 2-stage pipelines on a tiny
 *  12-layer model, fast uniform network. */
class SimFixture : public ::testing::Test
{
  protected:
    SimFixture()
    {
        for (int i = 0; i < 4; ++i) {
            NodeSpec node;
            node.name = "t4-" + std::to_string(i);
            node.gpu = cluster::gpus::t4();
            clusterSpec.addNode(std::move(node));
        }
        clusterSpec.setUniformLinks(10e9, 1e-3);
        toy = model::catalog::llama30b();
        toy.numLayers = 12;
        profiler = std::make_unique<Profiler>(toy);
        placement.nodes = {{0, 6}, {6, 6}, {0, 6}, {6, 6}};
        graph = std::make_unique<placement::PlacementGraph>(
            clusterSpec, *profiler, placement);
        topo = std::make_unique<scheduler::Topology>(
            clusterSpec, *profiler, placement, *graph);
    }

    std::vector<trace::Request>
    makeRequests(int count, double rate, uint64_t seed = 3)
    {
        trace::LengthModel lengths;
        lengths.targetMeanPrompt = 120;
        lengths.maxPromptLen = 512;
        lengths.targetMeanOutput = 40;
        lengths.maxOutputLen = 128;
        trace::TraceGenerator gen(seed, lengths);
        trace::PoissonArrivals arrivals(rate);
        return gen.generateCount(count, arrivals);
    }

    ClusterSpec clusterSpec;
    model::TransformerSpec toy;
    std::unique_ptr<Profiler> profiler;
    placement::ModelPlacement placement;
    std::unique_ptr<placement::PlacementGraph> graph;
    std::unique_ptr<scheduler::Topology> topo;
};

TEST_F(SimFixture, RequestAccountingConserved)
{
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 5.0;
    config.measureSeconds = 60.0;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(makeRequests(200, 5.0));
    EXPECT_GT(metrics.requestsArrived, 0);
    EXPECT_GT(metrics.requestsCompleted, 0);
    EXPECT_LE(metrics.requestsCompleted, metrics.requestsAdmitted);
    EXPECT_LE(metrics.requestsAdmitted + metrics.requestsRejected,
              metrics.requestsArrived);
}

TEST_F(SimFixture, ThroughputPositiveUnderLoad)
{
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 5.0;
    config.measureSeconds = 60.0;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(makeRequests(500, 10.0));
    EXPECT_GT(metrics.decodeThroughput, 0.0);
    EXPECT_GT(metrics.promptThroughput, 0.0);
    EXPECT_GT(metrics.promptLatency.count(), 0u);
    EXPECT_GT(metrics.decodeLatency.count(), 0u);
    EXPECT_GT(metrics.promptLatency.mean(), 0.0);
    EXPECT_GT(metrics.decodeLatency.mean(), 0.0);
}

TEST_F(SimFixture, LatencyRespectsPhysicalFloor)
{
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 60.0;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(makeRequests(50, 0.5));
    // A decode token crosses at least 4 links (1 ms each) per
    // round trip plus two compute iterations.
    EXPECT_GE(metrics.decodeLatency.min(), 4e-3);
}

TEST_F(SimFixture, EmptyTraceYieldsZeroMetrics)
{
    scheduler::HelixScheduler sched(*topo);
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched);
    auto metrics = sim.run({});
    EXPECT_EQ(metrics.requestsArrived, 0);
    EXPECT_DOUBLE_EQ(metrics.decodeThroughput, 0.0);
}

TEST_F(SimFixture, NodeStatsPopulated)
{
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 30.0;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(makeRequests(200, 8.0));
    ASSERT_EQ(metrics.nodeStats.size(), 4u);
    for (const auto &stat : metrics.nodeStats) {
        EXPECT_GT(stat.batches, 0);
        EXPECT_GT(stat.tokensProcessed, 0);
        EXPECT_GT(stat.busySeconds, 0.0);
    }
}

TEST_F(SimFixture, LinkStatsCollectCongestion)
{
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 30.0;
    config.collectLinkStats = true;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(makeRequests(200, 8.0));
    EXPECT_FALSE(metrics.linkStats.empty());
    double bytes = 0.0;
    for (const auto &link : metrics.linkStats)
        bytes += link.totalBytes;
    EXPECT_GT(bytes, 0.0);
}

TEST_F(SimFixture, ActiveRequestCapEnforced)
{
    // The engine cap is derived from aggregate KV capacity: one
    // request holds planningContextLen tokens on every layer. A long
    // planning context shrinks it to a handful of requests.
    cluster::CostModelParams params;
    params.planningContextLen = 25000.0;
    Profiler long_context(toy, params);
    double token_layers = 0.0;
    for (int i = 0; i < clusterSpec.numNodes(); ++i) {
        token_layers +=
            static_cast<double>(long_context.kvCapacityBytes(
                clusterSpec.node(i), placement[i].count)) /
            toy.kvBytesPerTokenPerLayer();
    }
    const long cap = static_cast<long>(
        token_layers / (params.planningContextLen * toy.numLayers));
    ASSERT_EQ(cap, 4);

    scheduler::WalkScheduler sched(*topo,
                                   scheduler::WalkPolicy::Random);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 30.0;
    ClusterSimulator sim(clusterSpec, long_context, placement, sched,
                         config);
    auto metrics = sim.run(makeRequests(300, 50.0));
    // 300 arrivals at a blast rate keep a backlog for the whole run,
    // so every completion admits exactly one more request: the run
    // ends with the cap in flight, never more.
    EXPECT_EQ(metrics.requestsRejected, 0);
    EXPECT_GT(metrics.requestsCompleted, 0);
    EXPECT_EQ(metrics.requestsAdmitted, metrics.requestsCompleted + cap);
}

TEST_F(SimFixture, OversizedRequestRejectedWhenIdle)
{
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 1.0;
    config.measureSeconds = 30.0;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    // One request whose KV estimate exceeds every node's capacity.
    trace::Request monster{0, 0.0, 500000, 10};
    auto metrics = sim.run({monster});
    EXPECT_EQ(metrics.requestsRejected, 1);
    EXPECT_EQ(metrics.requestsAdmitted, 0);
}

TEST_F(SimFixture, ChunkedPrefillSplitsLongPrompts)
{
    // A single 500-token prompt with a 64-token budget must run as
    // ceil(500/64) = 8 chunks on its entry node; with a 4096 budget it
    // runs as one iteration. Decode iterations (outputLen = 4) add the
    // same batch count to both runs.
    trace::Request lone{0, 0.0, 500, 4};

    scheduler::HelixScheduler sched_small(*topo);
    SimConfig small_chunks;
    small_chunks.warmupSeconds = 0.0;
    small_chunks.measureSeconds = 30.0;
    small_chunks.maxBatchTokens = 64;
    ClusterSimulator sim_small(clusterSpec, *profiler, placement,
                               sched_small, small_chunks);
    auto m_small = sim_small.run({lone});

    scheduler::HelixScheduler sched_big(*topo);
    SimConfig big_chunks;
    big_chunks.warmupSeconds = 0.0;
    big_chunks.measureSeconds = 30.0;
    big_chunks.maxBatchTokens = 4096;
    ClusterSimulator sim_big(clusterSpec, *profiler, placement,
                             sched_big, big_chunks);
    auto m_big = sim_big.run({lone});

    ASSERT_EQ(m_small.requestsCompleted, 1);
    ASSERT_EQ(m_big.requestsCompleted, 1);
    long small_batches = 0;
    long big_batches = 0;
    for (const auto &stat : m_small.nodeStats)
        small_batches += stat.batches;
    for (const auto &stat : m_big.nodeStats)
        big_batches += stat.batches;
    // Two stages x 7 extra chunks each = 14 extra batches.
    EXPECT_EQ(small_batches - big_batches, 14);
}

TEST_F(SimFixture, DeterministicForSeedAndTrace)
{
    auto requests = makeRequests(150, 6.0, 11);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 30.0;

    scheduler::HelixScheduler sched1(*topo);
    ClusterSimulator sim1(clusterSpec, *profiler, placement, sched1,
                          config);
    auto m1 = sim1.run(requests);

    scheduler::HelixScheduler sched2(*topo);
    ClusterSimulator sim2(clusterSpec, *profiler, placement, sched2,
                          config);
    auto m2 = sim2.run(requests);

    EXPECT_EQ(m1.requestsCompleted, m2.requestsCompleted);
    EXPECT_DOUBLE_EQ(m1.decodeThroughput, m2.decodeThroughput);
    EXPECT_DOUBLE_EQ(m1.promptLatency.mean(), m2.promptLatency.mean());
}

using SimFixtureDeathTest = SimFixture;

TEST_F(SimFixtureDeathTest, SecondRunOnOneSimulatorAborts)
{
    // A run leaves its clock, queues, KV and scheduler reservations
    // behind, so a reused simulator would report a silently empty run.
    scheduler::HelixScheduler sched(*topo);
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched);
    auto requests = makeRequests(50, 5.0);
    auto first = sim.run(requests);
    EXPECT_GT(first.requestsCompleted, 0);
    EXPECT_DEATH(sim.run(requests), "assertion failed: !ran");
}

TEST_F(SimFixture, WarmupStraddlingRequestsExcludedFromPromptLatency)
{
    // Requests that arrive during warmup but produce their first
    // token inside the window used to contribute their (arbitrarily
    // long) pre-window queueing to promptLatency. They must be
    // excluded: only requests measured entirely in-window count.
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 5.0;
    config.measureSeconds = 60.0;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    // All arrivals just before the warmup boundary; end-to-end first
    // token latency exceeds 10 ms (4 links x 1 ms plus two prompt
    // iterations), so every first token lands inside the window.
    std::vector<trace::Request> straddlers;
    for (int i = 0; i < 3; ++i)
        straddlers.push_back({i, 4.99, 100, 8});
    auto metrics = sim.run(straddlers);
    ASSERT_EQ(metrics.requestsCompleted, 3);
    EXPECT_GT(metrics.decodeTokensInWindow, 0);
    EXPECT_EQ(metrics.promptLatency.count(), 0u);
}

TEST_F(SimFixture, WarmupStraddlingRequestsExcludedFromDecodeLatency)
{
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 5.0;
    config.measureSeconds = 120.0;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    // The straddler's first token arrives well before the window
    // (arrival at 0, light load) while its long decode finishes
    // inside it; the control runs entirely in-window.
    trace::Request straddler{0, 0.0, 100, 1500};
    trace::Request control{1, 20.0, 100, 16};
    auto metrics = sim.run({straddler, control});
    ASSERT_EQ(metrics.requestsCompleted, 2);
    // Only the control contributes to either latency metric.
    EXPECT_EQ(metrics.promptLatency.count(), 1u);
    EXPECT_EQ(metrics.decodeLatency.count(), 1u);
}

TEST_F(SimFixture, EwmaThroughputTracksBusyAverageRate)
{
    // The throughput EWMA is duration-weighted: after a long steady
    // run it must sit near each node's busy-time average rate rather
    // than being dominated by whichever small batches ran last.
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 60.0;
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(makeRequests(400, 8.0));
    for (size_t i = 0; i < metrics.nodeStats.size(); ++i) {
        const auto &stat = metrics.nodeStats[i];
        ASSERT_GT(stat.busySeconds, 0.0);
        double avg_rate = static_cast<double>(stat.tokensProcessed) /
                          stat.busySeconds;
        double ewma = sim.recentThroughput(static_cast<int>(i));
        EXPECT_GT(ewma, 0.2 * avg_rate) << "node " << i;
        EXPECT_LT(ewma, 5.0 * avg_rate) << "node " << i;
    }
}

TEST_F(SimFixture, NodeFailureForcesRescheduling)
{
    scheduler::HelixScheduler sched(*topo);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 60.0;
    config.churnEvents = {{ChurnEvent::Kind::Fail, 1, 10.0}};
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(makeRequests(200, 5.0));
    // Requests in flight through node 1 at the failure restart and
    // complete on the surviving pipeline.
    EXPECT_GT(metrics.requestsRestarted, 0);
    EXPECT_GT(metrics.requestsCompleted, 0);
    EXPECT_FALSE(sim.nodeAlive(1));
    EXPECT_TRUE(sim.nodeAlive(0));
    // Conservation still holds after restarts.
    EXPECT_LE(metrics.requestsCompleted, metrics.requestsAdmitted);
    EXPECT_LE(metrics.requestsAdmitted + metrics.requestsRejected,
              metrics.requestsArrived);
    // The dead node stops executing; the surviving same-layer replica
    // keeps going and ends up with strictly more batches.
    EXPECT_GT(metrics.nodeStats[3].batches,
              metrics.nodeStats[1].batches);
}

TEST_F(SimFixture, ChurnDoesNotDoubleCountWindowMetrics)
{
    // A restarted request regenerates its prompt and its already
    // delivered tokens; none of that recovery work may be recounted
    // as served tokens or resampled into the latency distributions.
    // The single request routes onto one of the two pipelines; fail
    // each candidate node in turn so at least one run restarts it.
    trace::Request lone{0, 0.0, 200, 40};
    long restarts = 0;
    for (int fail_node : {1, 3}) {
        scheduler::HelixScheduler sched(*topo);
        SimConfig config;
        config.warmupSeconds = 0.0;
        config.measureSeconds = 120.0;
        config.churnEvents = {{ChurnEvent::Kind::Fail, fail_node, 0.5}};
        ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                             config);
        auto metrics = sim.run({lone});
        restarts += metrics.requestsRestarted;
        ASSERT_EQ(metrics.requestsCompleted, 1);
        // Each of the 40 output tokens counts at most once (the
        // first is prompt completion, not decode), the prompt counts
        // at most once, and at most one latency sample per metric.
        EXPECT_LE(metrics.decodeTokensInWindow, 39);
        EXPECT_LE(metrics.promptTokensInWindow, 200);
        EXPECT_LE(metrics.promptLatency.count(), 1u);
        EXPECT_LE(metrics.decodeLatency.count(), 1u);
    }
    EXPECT_GE(restarts, 1);
}

TEST_F(SimFixture, NodeFailureDeterministic)
{
    auto requests = makeRequests(150, 6.0, 17);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 40.0;
    config.churnEvents = {{ChurnEvent::Kind::Fail, 0, 8.0}};

    scheduler::HelixScheduler sched1(*topo);
    ClusterSimulator sim1(clusterSpec, *profiler, placement, sched1,
                          config);
    auto m1 = sim1.run(requests);

    scheduler::HelixScheduler sched2(*topo);
    ClusterSimulator sim2(clusterSpec, *profiler, placement, sched2,
                          config);
    auto m2 = sim2.run(requests);

    EXPECT_EQ(m1.requestsCompleted, m2.requestsCompleted);
    EXPECT_EQ(m1.requestsRestarted, m2.requestsRestarted);
    EXPECT_DOUBLE_EQ(m1.decodeThroughput, m2.decodeThroughput);
    EXPECT_DOUBLE_EQ(m1.promptLatency.mean(),
                     m2.promptLatency.mean());
}

/**
 * Forwards to a wrapped scheduler, checks that every finish (or
 * restart) notification carries exactly the stages its admission did,
 * and records the hops of every admitted pipeline: (coordinator, first
 * node), each (node, next node), and (last node, coordinator).
 */
class RecordingScheduler : public scheduler::RequestScheduler
{
  public:
    using Hop = std::pair<int, int>;

    explicit RecordingScheduler(scheduler::RequestScheduler &wrapped)
        : inner(wrapped)
    {
    }

    std::string name() const override { return inner.name(); }

    std::optional<scheduler::Pipeline>
    schedule(const trace::Request &request,
             const scheduler::SchedulerContext &ctx) override
    {
        return inner.schedule(request, ctx);
    }

    void
    onRequestAdmitted(const trace::Request &request,
                      const scheduler::Pipeline &pipeline) override
    {
        ++admissions;
        if (!live.emplace(request.id, pipeline).second)
            ++mismatches; // Admitted twice without a finish between.
        int from = cluster::kCoordinator;
        for (const scheduler::PipelineStage &stage : pipeline) {
            hops.insert({from, stage.node});
            from = stage.node;
        }
        hops.insert({from, cluster::kCoordinator});
        firstHops.insert({cluster::kCoordinator, pipeline.front().node});
        inner.onRequestAdmitted(request, pipeline);
    }

    void
    onRequestFinished(const trace::Request &request,
                      const scheduler::Pipeline &pipeline) override
    {
        ++finishes;
        auto it = live.find(request.id);
        if (it == live.end() || !sameStages(it->second, pipeline))
            ++mismatches;
        else
            live.erase(it);
        inner.onRequestFinished(request, pipeline);
    }

    void
    onTopologyChange(const scheduler::Topology &topology) override
    {
        if (topologyChanges == 0)
            hopsBeforeFirstChange = hops;
        ++topologyChanges;
        inner.onTopologyChange(topology);
    }

    long admissions = 0;
    long finishes = 0;
    long mismatches = 0;
    /** Admitted pipelines not yet finished, by request id. */
    std::map<int, scheduler::Pipeline> live;
    std::set<Hop> hops;
    std::set<Hop> firstHops;
    std::set<Hop> hopsBeforeFirstChange;
    int topologyChanges = 0;

  private:
    static bool
    sameStages(const scheduler::Pipeline &a, const scheduler::Pipeline &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                          [](const scheduler::PipelineStage &x,
                             const scheduler::PipelineStage &y) {
                              return x.node == y.node &&
                                     x.startLayer == y.startLayer &&
                                     x.endLayer == y.endLayer;
                          });
    }

    scheduler::RequestScheduler &inner;
};

/**
 * Forwards to a wrapped scheduler and folds what every schedule() call
 * could observe of the queues, ctx.queueLength(n) for each node n,
 * into an FNV-1a hash.
 */
class QueueObservingScheduler : public scheduler::RequestScheduler
{
  public:
    QueueObservingScheduler(scheduler::RequestScheduler &wrapped,
                            int num_nodes)
        : inner(wrapped), numNodes(num_nodes)
    {
    }

    std::string name() const override { return inner.name(); }

    std::optional<scheduler::Pipeline>
    schedule(const trace::Request &request,
             const scheduler::SchedulerContext &ctx) override
    {
        ++calls;
        for (int node = 0; node < numNodes; ++node) {
            const auto len = static_cast<uint32_t>(ctx.queueLength(node));
            for (int byte = 0; byte < 4; ++byte) {
                hash ^= (len >> (8 * byte)) & 0xffu;
                hash *= 0x100000001b3ull;
            }
        }
        return inner.schedule(request, ctx);
    }

    void
    onRequestAdmitted(const trace::Request &request,
                      const scheduler::Pipeline &pipeline) override
    {
        inner.onRequestAdmitted(request, pipeline);
    }

    void
    onRequestFinished(const trace::Request &request,
                      const scheduler::Pipeline &pipeline) override
    {
        inner.onRequestFinished(request, pipeline);
    }

    void
    onTopologyChange(const scheduler::Topology &topology) override
    {
        inner.onTopologyChange(topology);
    }

    long calls = 0;
    uint64_t hash = 0xcbf29ce484222325ull;

  private:
    scheduler::RequestScheduler &inner;
    int numNodes;
};

TEST_F(SimFixture, FinishNotifiesAdmittedPipelineAndKvDrains)
{
    // Churn restarts and fair-share preemptions free a request's stage
    // range while other requests are in flight and re-admit it into
    // another; the scheduler must still see, at every finish, exactly
    // the pipeline it admitted, and every KV byte must come back.
    scheduler::HelixScheduler helix_sched(*topo);
    RecordingScheduler sched(helix_sched);
    SimConfig config;
    config.warmupSeconds = 0.0;
    config.measureSeconds = 2000.0;
    config.tenants = {{"light", 1.0}, {"heavy", 4.0}};
    config.starvationTolerance = 0.5;
    config.preemptionTimeoutS = 1.0;
    config.churnEvents = {{ChurnEvent::Kind::Fail, 1, 5.0},
                          {ChurnEvent::Kind::Recover, 1, 12.0},
                          {ChurnEvent::Kind::Fail, 2, 18.0},
                          {ChurnEvent::Kind::Recover, 2, 26.0}};
    auto requests = makeRequests(600, 20.0);
    for (size_t i = 0; i < requests.size(); ++i)
        requests[i].tenant = static_cast<int>(i % 2);
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(requests);

    ASSERT_EQ(metrics.requestsCompleted, 600);
    EXPECT_GT(metrics.requestsRestarted, 0);
    EXPECT_GT(metrics.requestsPreempted, 0);
    EXPECT_EQ(sched.mismatches, 0);
    EXPECT_EQ(sched.admissions, sched.finishes);
    EXPECT_EQ(sched.admissions, metrics.requestsCompleted +
                                    metrics.requestsRestarted +
                                    metrics.requestsPreempted);
    EXPECT_TRUE(sched.live.empty());
    for (int node = 0; node < clusterSpec.numNodes(); ++node) {
        // Exact: each stage releases precisely what it wrote.
        EXPECT_TRUE(sameValue(sim.kvUsedBytes(node), 0.0))
            << "node " << node << " holds " << sim.kvUsedBytes(node);
    }
}

TEST_F(SimFixture, ShortestQueueObservationsArePinned)
{
    // The shortest-queue walker routes by ctx.queueLength, so every
    // queue depth it is shown, across churn restarts and fair-share
    // preemptions, is part of the output. Pin all of them: a count of
    // schedule() calls and a hash of every node's depth at each call.
    scheduler::WalkScheduler walk(*topo,
                                  scheduler::WalkPolicy::ShortestQueue);
    QueueObservingScheduler sched(walk, clusterSpec.numNodes());
    SimConfig config;
    config.warmupSeconds = 0.0;
    config.measureSeconds = 2000.0;
    config.tenants = {{"light", 1.0}, {"heavy", 4.0}};
    config.starvationTolerance = 0.5;
    config.preemptionTimeoutS = 1.0;
    config.churnEvents = {{ChurnEvent::Kind::Fail, 1, 5.0},
                          {ChurnEvent::Kind::Recover, 1, 12.0},
                          {ChurnEvent::Kind::Fail, 2, 18.0},
                          {ChurnEvent::Kind::Recover, 2, 26.0}};
    auto requests = makeRequests(600, 20.0);
    for (size_t i = 0; i < requests.size(); ++i)
        requests[i].tenant = static_cast<int>(i % 2);
    ClusterSimulator sim(clusterSpec, *profiler, placement, sched,
                         config);
    auto metrics = sim.run(requests);

    ASSERT_EQ(metrics.requestsCompleted, 600);
    EXPECT_GT(metrics.requestsRestarted, 0);
    EXPECT_GT(metrics.requestsPreempted, 0);
    EXPECT_EQ(sched.calls, 705);
    EXPECT_EQ(sched.hash, 0x5d233727532e153eull);
}

TEST_F(SimFixture, InTransitDeliveriesOutliveIdleNodesArePinned)
{
    // Two T4 first stages feed one A100 second stage over links slower
    // than a batch, so activations are still in transit when the
    // receiver ends a batch and goes idle, and each one that lands on
    // the idle receiver must still start a batch there. Each first
    // stage fails in turn with its activations in flight and the
    // other's behind them: the receiver sees stale deliveries ahead of
    // live ones. Pin the whole output, as an FNV-1a hash of its
    // fingerprint.
    ClusterSpec fan_in;
    fan_in.addNode(clusterSpec.node(0));
    fan_in.addNode(clusterSpec.node(1));
    NodeSpec receiver = clusterSpec.node(2);
    receiver.gpu = cluster::gpus::a100_80();
    fan_in.addNode(std::move(receiver));
    fan_in.setUniformLinks(1e9, 60e-3);
    placement::ModelPlacement fan_placement;
    fan_placement.nodes = {{0, 6}, {0, 6}, {6, 6}};
    placement::PlacementGraph fan_graph(fan_in, *profiler, fan_placement);
    scheduler::Topology fan_topo(fan_in, *profiler, fan_placement,
                                 fan_graph);
    scheduler::HelixScheduler sched(fan_topo);
    SimConfig config;
    config.warmupSeconds = 0.0;
    config.measureSeconds = 600.0;
    config.churnEvents = {{ChurnEvent::Kind::Fail, 0, 5.0},
                          {ChurnEvent::Kind::Recover, 0, 8.0},
                          {ChurnEvent::Kind::Fail, 1, 15.0},
                          {ChurnEvent::Kind::Recover, 1, 18.0}};
    ClusterSimulator sim(fan_in, *profiler, fan_placement, sched, config);
    auto metrics = sim.run(makeRequests(300, 15.0));

    ASSERT_EQ(metrics.requestsCompleted, 300);
    EXPECT_GT(metrics.requestsRestarted, 0);
    EXPECT_GT(metrics.nodeStats[0].batches, 0);
    EXPECT_GT(metrics.nodeStats[1].batches, 0);
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : fingerprint(metrics)) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    EXPECT_EQ(hash, 0x68689ebcb1c106f7ull) << std::hex << hash;
}

TEST_F(SimFixture, QueuedWorkOrderIsPinned)
{
    // Two A100 first stages feed one T4 second stage with 7 GiB of
    // memory, routed by the shortest-queue walker, which has no KV
    // admission control: the receiver's KV runs full, so it defers
    // prompts while decode items queue behind them. Its links are slow
    // enough that a forwarded prompt is still in transit when decode
    // items sent after it to the same node land, and a 64-token batch
    // budget runs prompts as chunks. Each first stage fails and
    // recovers with work queued at the receiver, so the purge edits
    // its queue. The order in which queued work starts shapes all of
    // the output: pin it, as an FNV-1a hash of the fingerprint.
    ClusterSpec fan_in;
    NodeSpec sender = clusterSpec.node(0);
    sender.gpu = cluster::gpus::a100_80();
    fan_in.addNode(sender);
    fan_in.addNode(sender);
    NodeSpec receiver = clusterSpec.node(2);
    receiver.gpu.memoryGiB = 7.0;
    fan_in.addNode(std::move(receiver));
    fan_in.setUniformLinks(200e6, 5e-3);
    placement::ModelPlacement fan_placement;
    fan_placement.nodes = {{0, 6}, {0, 6}, {6, 6}};
    placement::PlacementGraph fan_graph(fan_in, *profiler, fan_placement);
    scheduler::Topology fan_topo(fan_in, *profiler, fan_placement,
                                 fan_graph);
    scheduler::WalkScheduler sched(fan_topo,
                                   scheduler::WalkPolicy::ShortestQueue);
    SimConfig config;
    config.warmupSeconds = 0.0;
    config.measureSeconds = 600.0;
    config.maxBatchTokens = 64;
    config.churnEvents = {{ChurnEvent::Kind::Fail, 0, 6.0},
                          {ChurnEvent::Kind::Recover, 0, 9.0},
                          {ChurnEvent::Kind::Fail, 1, 14.0},
                          {ChurnEvent::Kind::Recover, 1, 17.0}};
    ClusterSimulator sim(fan_in, *profiler, fan_placement, sched, config);
    auto metrics = sim.run(makeRequests(300, 15.0));

    ASSERT_EQ(metrics.requestsCompleted, 300);
    EXPECT_GT(metrics.requestsRestarted, 0);
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : fingerprint(metrics)) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    EXPECT_EQ(hash, 0x8dcaf0b304b16e35ull) << std::hex << hash;
}

TEST_F(SimFixture, SlowNetworkRaisesLatency)
{
    // Same workload on a 100x slower, higher-latency network.
    ClusterSpec slow;
    for (int i = 0; i < 4; ++i)
        slow.addNode(clusterSpec.node(i));
    slow.setUniformLinks(100e6, 50e-3);
    placement::PlacementGraph slow_graph(slow, *profiler, placement);
    scheduler::Topology slow_topo(slow, *profiler, placement,
                                  slow_graph);

    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 40.0;

    scheduler::HelixScheduler fast_sched(*topo);
    ClusterSimulator fast_sim(clusterSpec, *profiler, placement,
                              fast_sched, config);
    auto fast = fast_sim.run(makeRequests(100, 2.0));

    scheduler::HelixScheduler slow_sched(slow_topo);
    ClusterSimulator slow_sim(slow, *profiler, placement, slow_sched,
                              config);
    auto slow_metrics = slow_sim.run(makeRequests(100, 2.0));

    EXPECT_GT(slow_metrics.decodeLatency.mean(),
              fast.decodeLatency.mean());
}

TEST(SimLinks, OnlyPlacementConnectionsCarryTraffic)
{
    // 1000 geo-distributed nodes: link state exists only for the pairs
    // able to carry traffic, and a Swarm run touches nothing else.
    cluster::gen::GeneratorConfig gen_config;
    gen_config.preset = "geo-distributed";
    gen_config.numNodes = 1000;
    auto clus = cluster::gen::generate(gen_config);
    ASSERT_TRUE(clus.has_value());
    Profiler profiler(model::catalog::llama30b());
    placement::SwarmPlanner planner;
    auto placement = planner.plan(*clus, profiler);
    placement::PlacementGraph graph(*clus, profiler, placement);
    scheduler::Topology topo(*clus, profiler, placement, graph);
    scheduler::WalkScheduler sched(
        topo, scheduler::WalkPolicy::ThroughputProportional);

    trace::LengthModel lengths;
    lengths.targetMeanPrompt = 120;
    lengths.maxPromptLen = 512;
    lengths.targetMeanOutput = 40;
    lengths.maxOutputLen = 128;
    trace::TraceGenerator gen(3, lengths);
    trace::PoissonArrivals arrivals(1000.0);
    SimConfig config;
    config.warmupSeconds = 0.5;
    config.measureSeconds = 9.5;
    config.collectLinkStats = true;
    ClusterSimulator sim(*clus, profiler, placement, sched, config);
    auto metrics = sim.run(gen.generateCount(2000, arrivals));

    ASSERT_GT(metrics.requestsCompleted, 0);
    ASSERT_FALSE(metrics.linkStats.empty());
    bool node_to_node = false;
    for (size_t i = 0; i < metrics.linkStats.size(); ++i) {
        const LinkStat &link = metrics.linkStats[i];
        EXPECT_GT(link.transfers, 0);
        if (link.from == cluster::kCoordinator) {
            EXPECT_GT(placement[link.to].count, 0) << link.to;
        } else if (link.to == cluster::kCoordinator) {
            EXPECT_GT(placement[link.from].count, 0) << link.from;
        } else {
            node_to_node = true;
            EXPECT_TRUE(graph.hasConnection(link.from, link.to))
                << link.from << " -> " << link.to;
        }
        if (i > 0) {
            const LinkStat &prev = metrics.linkStats[i - 1];
            EXPECT_TRUE(prev.from < link.from ||
                        (prev.from == link.from && prev.to < link.to))
                << "row-major order broken at " << i;
        }
    }
    EXPECT_TRUE(node_to_node);
}

/**
 * Runs @p quiet_sched with link statistics off, then @p recorder with
 * them on (each a fresh scheduler of the same kind), and checks that
 * links exist only for admitted hops: every linkStats entry is a hop
 * of an admitted pipeline, every admitted first hop has one, entries
 * are row-major, each carries the bytes its kind of hop sends, and
 * collecting them changes no other metric.
 */
void
expectLinksMadeOnFirstUse(const ClusterSpec &clus, const Profiler &profiler,
                          const placement::ModelPlacement &placement,
                          SimConfig config,
                          const std::vector<trace::Request> &requests,
                          scheduler::RequestScheduler &quiet_sched,
                          RecordingScheduler &recorder)
{
    config.collectLinkStats = false;
    ClusterSimulator quiet_sim(clus, profiler, placement, quiet_sched,
                               config);
    const SimMetrics quiet = quiet_sim.run(requests);

    config.collectLinkStats = true;
    ClusterSimulator sim(clus, profiler, placement, recorder, config);
    SimMetrics metrics = sim.run(requests);

    EXPECT_GT(metrics.requestsCompleted, 0);
    EXPECT_EQ(recorder.mismatches, 0);
    EXPECT_FALSE(metrics.linkStats.empty());
    std::set<RecordingScheduler::Hop> listed;
    for (size_t i = 0; i < metrics.linkStats.size(); ++i) {
        const LinkStat &link = metrics.linkStats[i];
        listed.insert({link.from, link.to});
        EXPECT_TRUE(recorder.hops.count({link.from, link.to}))
            << link.from << " -> " << link.to << " is no admitted hop";
        EXPECT_GT(link.transfers, 0);
        const double transfers = static_cast<double>(link.transfers);
        if (link.to == cluster::kCoordinator) {
            // Only output tokens travel back to the coordinator.
            EXPECT_NEAR(link.totalBytes, transfers * profiler.tokenBytes(),
                        1e-9 * link.totalBytes)
                << link.from << " -> coordinator";
        } else if (link.from != cluster::kCoordinator) {
            // Activations of at least one token per transfer.
            EXPECT_GE(link.totalBytes,
                      transfers * profiler.activationBytes() *
                          (1.0 - 1e-12))
                << link.from << " -> " << link.to;
        }
        if (i > 0) {
            const LinkStat &prev = metrics.linkStats[i - 1];
            EXPECT_TRUE(prev.from < link.from ||
                        (prev.from == link.from && prev.to < link.to))
                << "row-major order broken at " << i;
        }
    }
    for (const RecordingScheduler::Hop &hop : recorder.firstHops)
        EXPECT_TRUE(listed.count(hop)) << "first hop to " << hop.second;

    metrics.linkStats.clear();
    EXPECT_EQ(fingerprint(metrics), fingerprint(quiet));
}

TEST(SimLinks, LinksAreMadeOnFirstUseAcrossChurn)
{
    // Two T4s hold the first six layers of a 12-layer model, and two
    // A100s, each fast enough for both T4s, the last six. The planned
    // flow sends both T4s' output to A100 node 1; failing it re-solves
    // the topology onto node 3, over connections no earlier pipeline
    // used, whose links appear only then.
    ClusterSpec clus;
    for (int i = 0; i < 4; ++i) {
        NodeSpec node;
        node.name = "n" + std::to_string(i);
        node.gpu = i % 2 == 0 ? cluster::gpus::t4() : cluster::gpus::a100_80();
        clus.addNode(std::move(node));
    }
    clus.setUniformLinks(10e9, 1e-3);
    model::TransformerSpec toy = model::catalog::llama30b();
    toy.numLayers = 12;
    Profiler profiler(toy);
    placement::ModelPlacement placement;
    placement.nodes = {{0, 6}, {6, 6}, {0, 6}, {6, 6}};
    placement::PlacementGraph graph(clus, profiler, placement);
    scheduler::Topology topo(clus, profiler, placement, graph);

    trace::LengthModel lengths;
    lengths.targetMeanPrompt = 120;
    lengths.maxPromptLen = 512;
    lengths.targetMeanOutput = 40;
    lengths.maxOutputLen = 128;
    trace::TraceGenerator gen(3, lengths);
    trace::PoissonArrivals arrivals(6.0);
    SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 40.0;
    config.churnEvents = {{ChurnEvent::Kind::Fail, 1, 8.0},
                          {ChurnEvent::Kind::Recover, 1, 20.0}};
    scheduler::HelixScheduler quiet_sched(topo);
    scheduler::HelixScheduler sched(topo);
    RecordingScheduler recorder(sched);
    expectLinksMadeOnFirstUse(clus, profiler, placement, config,
                              gen.generateCount(300, arrivals), quiet_sched,
                              recorder);
    ASSERT_GE(recorder.topologyChanges, 1);
    EXPECT_GT(recorder.hops.size(), recorder.hopsBeforeFirstChange.size())
        << "the re-solve routed over no new connection";
}

TEST(SimLinks, LinksAreMadeOnFirstUseUnderRandomWalks)
{
    // A random walker on a few hundred nodes spreads its pipelines
    // over many distinct connections, so links are made in an order
    // far from the row-major one they are reported in.
    cluster::gen::GeneratorConfig gen_config;
    gen_config.preset = "geo-distributed";
    gen_config.numNodes = 300;
    auto clus = cluster::gen::generate(gen_config);
    ASSERT_TRUE(clus.has_value());
    Profiler profiler(model::catalog::llama30b());
    placement::SwarmPlanner planner;
    auto placement = planner.plan(*clus, profiler);
    placement::PlacementGraph graph(*clus, profiler, placement);
    scheduler::Topology topo(*clus, profiler, placement, graph);

    trace::LengthModel lengths;
    lengths.targetMeanPrompt = 120;
    lengths.maxPromptLen = 512;
    lengths.targetMeanOutput = 40;
    lengths.maxOutputLen = 128;
    trace::TraceGenerator gen(5, lengths);
    trace::PoissonArrivals arrivals(300.0);
    SimConfig config;
    config.warmupSeconds = 0.5;
    config.measureSeconds = 5.5;
    scheduler::WalkScheduler quiet_sched(topo,
                                         scheduler::WalkPolicy::Random);
    scheduler::WalkScheduler sched(topo, scheduler::WalkPolicy::Random);
    RecordingScheduler recorder(sched);
    expectLinksMadeOnFirstUse(*clus, profiler, placement, config,
                              gen.generateCount(1500, arrivals), quiet_sched,
                              recorder);
    EXPECT_GT(recorder.hops.size(), 500u);
}

/** Randomized-budget scale: HELIX_FUZZ_ITERS or the default. */
int
instanceBudget(int default_instances)
{
    const char *env = std::getenv("HELIX_FUZZ_ITERS");
    if (!env || *env == '\0')
        return default_instances;
    int value = std::atoi(env);
    return value > 0 ? value : default_instances;
}

/** minLinkLatency's oracle: std::min over ClusterSpec::link of every
 *  ordered pair of distinct endpoints, the coordinator's included. */
double
scanMinLinkLatency(const ClusterSpec &clus)
{
    double best = std::numeric_limits<double>::infinity();
    for (int from = cluster::kCoordinator; from < clus.numNodes(); ++from) {
        for (int to = cluster::kCoordinator; to < clus.numNodes(); ++to) {
            if (from != to)
                best = std::min(best, clus.link(from, to).latencyS);
        }
    }
    return best;
}

/** A latency that often ties, is zero or is NaN. */
double
drawLatency(Rng &rng)
{
    switch (rng.nextBounded(5)) {
      case 0:  return std::numeric_limits<double>::quiet_NaN();
      case 1:  return 0.0;
      case 2:  return 1e-3;
      default: return 0.1 * rng.nextDouble();
    }
}

/** @p n nodes over @p regions regions, links by region class. */
ClusterSpec
regionCluster(Rng &rng, int n, int regions)
{
    ClusterSpec clus;
    for (int i = 0; i < n; ++i) {
        NodeSpec node;
        node.name = "n" + std::to_string(i);
        node.gpu = cluster::gpus::t4();
        node.region = static_cast<int>(rng.nextBounded(regions));
        clus.addNode(std::move(node));
    }
    clus.connectRegions({1e9, drawLatency(rng)}, {1e8, drawLatency(rng)},
                        static_cast<int>(rng.nextBounded(regions)));
    return clus;
}

TEST(MinLinkLatency, MatchesTheScanOverEveryPair)
{
    // Random clusters with regions, the coordinator's among them, and
    // random overrides, on latencies that tie, are zero or are NaN.
    Rng rng(0x1a7e);
    const int rounds = instanceBudget(300);
    for (int round = 0; round < rounds; ++round) {
        SCOPED_TRACE(round);
        const int n = static_cast<int>(rng.nextInt(0, 9));
        ClusterSpec clus =
            regionCluster(rng, n, 1 + static_cast<int>(rng.nextBounded(4)));
        std::vector<cluster::LinkOverride> overrides;
        const uint64_t odds = 1 + rng.nextBounded(4);
        for (int from = cluster::kCoordinator; from < n; ++from) {
            for (int to = cluster::kCoordinator; to < n; ++to) {
                if (from != to && rng.nextBounded(odds) == 0)
                    overrides.push_back({from, to, {1e9, drawLatency(rng)}});
            }
        }
        clus.setLinks(std::move(overrides));
        EXPECT_EQ(minLinkLatency(clus), scanMinLinkLatency(clus));
    }
}

TEST(MinLinkLatency, AClassWhosePairsAreAllOverriddenDoesNotCount)
{
    // Every same-region pair carries an override slower than the
    // intra-region class, so the class itself is never a pair's link;
    // then every cross-region pair does, against the inter class.
    Rng rng(0x0bad);
    for (const bool intra : {true, false}) {
        SCOPED_TRACE(intra ? "same-region pairs" : "cross-region pairs");
        ClusterSpec clus = regionCluster(rng, 12, 3);
        clus.connectRegions({1e9, intra ? 1e-6 : 5e-3},
                            {1e8, intra ? 5e-2 : 1e-6}, 1);
        auto region = [&](int endpoint) {
            return endpoint == cluster::kCoordinator
                       ? clus.coordinatorRegion()
                       : clus.node(endpoint).region;
        };
        std::vector<cluster::LinkOverride> overrides;
        for (int from = cluster::kCoordinator; from < 12; ++from) {
            for (int to = cluster::kCoordinator; to < 12; ++to) {
                if (from != to && (region(from) == region(to)) == intra)
                    overrides.push_back(
                        {from, to, {1e9, 1e-3 + 1e-4 * (from + 2)}});
            }
        }
        clus.setLinks(std::move(overrides));
        EXPECT_EQ(minLinkLatency(clus), scanMinLinkLatency(clus));
        EXPECT_GE(minLinkLatency(clus), 1e-3);
    }
}

/**
 * A push time at or after @p last, the last popped time. The draws make
 * exact ties common (pushes at exactly @p last, quarter-second steps),
 * cross exponent boundaries (powers of two, large jumps), and hit the
 * adjacent bit pattern (nextafter).
 */
double
drawPushTime(Rng &rng, double last)
{
    switch (rng.nextBounded(6)) {
      case 0:
        return last;
      case 1:
      case 2:
        return last + 0.25 * static_cast<double>(rng.nextInt(0, 8));
      case 3:
        return std::nextafter(last, std::numeric_limits<double>::infinity());
      case 4: {
        // The next power of two above last, or one or two beyond it.
        const int exponent = last > 0.0 ? std::ilogb(last) + 1 : -3;
        return std::ldexp(1.0, exponent + static_cast<int>(rng.nextInt(0, 2)));
      }
      default:
        return last + 1024.0 * static_cast<double>(rng.nextInt(1, 4));
    }
}

TEST(EventQueue, PopsInBinaryHeapOrderOnRandomMonotoneSchedules)
{
    // Oracle: the binary heap the simulator used before the radix queue.
    struct Inverted
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return eventBefore(b, a);
        }
    };
    const int instances = instanceBudget(200);
    for (int inst = 0; inst < instances; ++inst) {
        std::ostringstream replay;
        replay << "replay: event-queue instance_seed=" << (5000 + inst);
        SCOPED_TRACE(replay.str());
        Rng rng(static_cast<uint64_t>(5000 + inst));
        EventQueue queue;
        std::priority_queue<Event, std::vector<Event>, Inverted> oracle;
        uint64_t seq = 0;
        double last = 0.0;
        auto push = [&](double time) {
            // Small content ranges: whole-key ties fall through to seq.
            Event event;
            event.time = time;
            event.seq = seq++;
            event.kind = static_cast<Event::Kind>(rng.nextBounded(8));
            event.node = static_cast<int>(rng.nextInt(0, 2));
            event.item.request = static_cast<int>(rng.nextInt(-1, 2));
            event.item.stage = static_cast<int>(rng.nextInt(0, 1));
            event.item.epoch = static_cast<uint32_t>(rng.nextBounded(2));
            queue.push(event);
            oracle.push(event);
        };
        auto pop_and_compare = [&]() {
            const Event got = queue.pop();
            const Event want = oracle.top();
            oracle.pop();
            ASSERT_EQ(got.seq, want.seq) << "at time " << want.time;
            ASSERT_TRUE(sameValue(got.time, want.time));
            ASSERT_EQ(std::signbit(got.time), std::signbit(want.time));
            ASSERT_EQ(queue.empty(), oracle.empty());
            last = got.time;
        };

        // Both signs of zero, before the first pop and after it.
        const int zeros = static_cast<int>(rng.nextInt(1, 6));
        for (int i = 0; i < zeros; ++i)
            push(rng.nextBounded(2) == 0 ? -0.0 : 0.0);
        pop_and_compare();
        push(-0.0);

        const int ops = static_cast<int>(rng.nextInt(50, 400));
        for (int op = 0; op < ops; ++op) {
            if (queue.empty() || rng.nextBounded(100) < 55)
                push(drawPushTime(rng, last));
            else
                pop_and_compare();
            if (::testing::Test::HasFatalFailure())
                return;
        }
        while (!queue.empty()) {
            pop_and_compare();
            if (::testing::Test::HasFatalFailure())
                return;
        }
        EXPECT_TRUE(oracle.empty());
    }
}

/** Whether @p a and @p b are the same work item, field by field. */
bool
sameItem(const WorkItem &a, const WorkItem &b)
{
    return a.request == b.request && a.stage == b.stage &&
           a.numTokens == b.numTokens && a.epoch == b.epoch &&
           a.isPrompt == b.isPrompt && a.finalChunk == b.finalChunk;
}

/** Whether @p a and @p b are the same delivery. */
bool
sameDelivery(const Event &a, const Event &b)
{
    return sameValue(a.time, b.time) && a.kind == b.kind &&
           a.node == b.node && sameItem(a.item, b.item);
}

TEST(InboxPool, MatchesSortedVectorsOnRandomSchedules)
{
    // Oracle: per node, the queue in delivery order, and the pending
    // decode items and pending prompts, each kept in eventBefore order
    // (after equal times, as sends arrive) with whether its wake was
    // taken. The schedule follows the simulator's protocol: an idle
    // node takes its earliest pending entry's wake after every step
    // that can leave it unwoken, only live nodes get work, and a
    // receiver may take queued items while a delivery runs.
    struct Pending
    {
        Event delivery;
        bool woken = false;
    };
    struct Node
    {
        bool dead = false;
        std::vector<WorkItem> queue;
        std::vector<Pending> work;
        std::vector<Pending> prompts;
    };
    using Take = InboxPool::Take;
    const int instances = instanceBudget(200);
    for (int inst = 0; inst < instances; ++inst) {
        std::ostringstream replay;
        replay << "replay: inbox instance_seed=" << (7000 + inst);
        SCOPED_TRACE(replay.str());
        Rng rng(static_cast<uint64_t>(7000 + inst));
        const int num_nodes = static_cast<int>(rng.nextInt(1, 4));
        InboxPool inboxes(static_cast<size_t>(num_nodes));
        std::vector<Node> nodes(static_cast<size_t>(num_nodes));
        double now = 0.0;

        // A delivery event with small content ranges, so equal times
        // and partly equal keys are common.
        auto draw_delivery = [&](int node, double time) {
            Event ev;
            ev.time = time;
            ev.kind = Event::Kind::WorkDelivery;
            ev.node = node;
            ev.item.request = static_cast<int>(rng.nextInt(0, 5));
            ev.item.stage = static_cast<int>(rng.nextInt(0, 2));
            ev.item.epoch = static_cast<uint32_t>(rng.nextBounded(2));
            ev.item.numTokens = static_cast<int>(rng.nextInt(1, 64));
            ev.item.isPrompt = rng.nextBounded(2) == 0;
            ev.item.finalChunk = rng.nextBounded(2) == 0;
            return ev;
        };
        auto draw_time = [&] {
            return now + 0.25 * static_cast<double>(rng.nextInt(0, 12));
        };
        // The earliest pending entry of a node, or nullptr.
        auto earliest = [](Node &state) -> Pending * {
            Pending *work = state.work.empty() ? nullptr : &state.work[0];
            Pending *prompt =
                state.prompts.empty() ? nullptr : &state.prompts[0];
            if (work == nullptr || prompt == nullptr)
                return work == nullptr ? prompt : work;
            return eventBefore(prompt->delivery, work->delivery) ? prompt
                                                                 : work;
        };
        auto take_wake = [&](int node) {
            Pending *first = earliest(nodes[static_cast<size_t>(node)]);
            Event wake;
            const bool woke = inboxes.takeWake(node, wake);
            ASSERT_EQ(woke, first != nullptr && !first->woken);
            if (woke) {
                EXPECT_TRUE(sameDelivery(wake, first->delivery));
                first->woken = true;
            }
        };
        auto wake_if_idle = [&](int node) {
            if (!inboxes.busy(node))
                take_wake(node);
        };
        // Take queued items at random, as a batch does: leave some,
        // remove some, stop anywhere, and shorten an item in place as
        // a chunk split does.
        auto take_some = [&](int node) {
            std::vector<WorkItem> &queue =
                nodes[static_cast<size_t>(node)].queue;
            size_t at = 0;
            bool stopped = false;
            inboxes.takeQueued(node, [&](WorkItem &item) {
                const bool same =
                    at < queue.size() && sameItem(item, queue[at]);
                EXPECT_TRUE(same) << "queued item " << at;
                if (!same)
                    return Take::Stop;
                const uint64_t pick = rng.nextBounded(10);
                if (pick < 4) {
                    queue.erase(queue.begin() + static_cast<long>(at));
                    return Take::Remove;
                }
                if (item.numTokens > 1 && rng.nextBounded(2) == 0) {
                    item.numTokens -= 1;
                    item.finalChunk = false;
                    queue[at] = item;
                }
                ++at;
                if (pick < 8)
                    return Take::Leave;
                stopped = true;
                return Take::Stop;
            });
            if (!stopped) {
                EXPECT_EQ(at, queue.size());
            }
        };
        // Whether a delivered item is live: the rest are dropped.
        auto live = [](const WorkItem &item) {
            return item.epoch == 0 || item.stage != 0;
        };

        const int ops = static_cast<int>(rng.nextInt(50, 400));
        for (int op = 0; op < ops; ++op) {
            const int node = static_cast<int>(
                rng.nextBounded(static_cast<uint64_t>(num_nodes)));
            Node &state = nodes[static_cast<size_t>(node)];
            const uint64_t kind = rng.nextBounded(100);
            if (state.dead) {
                // Recover: the node rejoins with an empty, idle inbox.
                if (kind < 30)
                    state.dead = false;
            } else if (kind < 40) {
                // Send a prompt or a decode item, landing anywhere from
                // now to a few seconds out: often before entries
                // already listed, and at times of queued ones.
                const Event delivery = draw_delivery(node, draw_time());
                std::vector<Pending> &list =
                    delivery.item.isPrompt ? state.prompts : state.work;
                // Coexisting deliveries never share a content key.
                bool taken = false;
                for (const std::vector<Pending> *pending :
                     {&state.work, &state.prompts}) {
                    for (const Pending &p : *pending) {
                        taken = taken ||
                                (!eventBefore(p.delivery, delivery) &&
                                 !eventBefore(delivery, p.delivery));
                    }
                }
                if (taken)
                    continue;
                auto at = std::upper_bound(
                    list.begin(), list.end(), delivery,
                    [](const Event &e, const Pending &p) {
                        return eventBefore(e, p.delivery);
                    });
                list.insert(at, Pending{delivery, false});
                const bool head =
                    sameDelivery(earliest(state)->delivery, delivery);
                const bool due =
                    inboxes.send(node, delivery.time, delivery.item);
                ASSERT_EQ(due, head && !inboxes.busy(node));
                if (due)
                    take_wake(node);
            } else if (kind < 62) {
                // Deliver up to an event: one of the pending deliveries
                // or an event of another kind at a pending or a drawn
                // time. The receiver may take queued items, and start a
                // batch, on any item queued.
                Event up_to = draw_delivery(node, draw_time());
                std::vector<Event> pending;
                for (const std::vector<Pending> *list :
                     {&state.work, &state.prompts}) {
                    for (const Pending &p : *list)
                        pending.push_back(p.delivery);
                }
                if (!pending.empty() && rng.nextBounded(2) == 0) {
                    up_to = pending[rng.nextBounded(pending.size())];
                    if (rng.nextBounded(2) == 0) {
                        up_to.kind =
                            static_cast<Event::Kind>(rng.nextBounded(8));
                    }
                }
                // The merge of both pending lists up to the event.
                std::vector<Event> want;
                for (;;) {
                    Pending *first = earliest(state);
                    if (first == nullptr ||
                        eventBefore(up_to, first->delivery))
                        break;
                    want.push_back(first->delivery);
                    std::vector<Pending> &list =
                        first->delivery.item.isPrompt ? state.prompts
                                                      : state.work;
                    list.erase(list.begin());
                }
                size_t got = 0;
                size_t queued = 0;
                inboxes.deliver(
                    node, up_to,
                    [&](const WorkItem &item) {
                        EXPECT_TRUE(got < want.size() &&
                                    sameItem(item, want[got].item));
                        ++got;
                        return live(item);
                    },
                    [&](const WorkItem &item) {
                        ++queued;
                        EXPECT_TRUE(live(item));
                        EXPECT_TRUE(sameItem(item, want[got - 1].item));
                        state.queue.push_back(item);
                        if (!inboxes.busy(node) && rng.nextBounded(3) == 0) {
                            take_some(node);
                            if (rng.nextBounded(2) == 0)
                                inboxes.setBusyUntil(node, now + 1.0);
                        }
                    });
                EXPECT_EQ(got, want.size());
                EXPECT_EQ(queued, static_cast<size_t>(std::count_if(
                                      want.begin(), want.end(),
                                      [&](const Event &e) {
                                          return live(e.item);
                                      })));
                wake_if_idle(node);
                now = std::max(now, up_to.time);
            } else if (kind < 72) {
                // Take queued items, as a batch does.
                take_some(node);
            } else if (kind < 77) {
                // Purge the queued items of one request, as a restart
                // does.
                const int request = static_cast<int>(rng.nextInt(0, 5));
                inboxes.takeQueued(node, [&](const WorkItem &item) {
                    return item.request == request ? Take::Remove
                                                   : Take::Leave;
                });
                state.queue.erase(
                    std::remove_if(state.queue.begin(), state.queue.end(),
                                   [&](const WorkItem &item) {
                                       return item.request == request;
                                   }),
                    state.queue.end());
            } else if (kind < 85) {
                // Count the pending entries that rank before an event,
                // of one epoch.
                const Event up_to = draw_delivery(node, draw_time());
                auto counts = [](const WorkItem &item) {
                    return item.epoch == 0;
                };
                int want = 0;
                for (const std::vector<Pending> *list :
                     {&state.work, &state.prompts}) {
                    for (const Pending &p : *list) {
                        if (eventBefore(p.delivery, up_to) &&
                            counts(p.delivery.item))
                            ++want;
                    }
                }
                EXPECT_EQ(inboxes.deliveredCount(node, up_to, counts), want);
            } else if (kind < 95) {
                // A batch starts or ends; an idle node takes its wake.
                if (inboxes.busy(node)) {
                    inboxes.setBusyUntil(
                        node, -std::numeric_limits<double>::infinity());
                    take_wake(node);
                } else {
                    inboxes.setBusyUntil(node, now + 0.5);
                }
            } else {
                // Fail: the inbox is emptied and the node idle.
                inboxes.clear(node);
                state = Node{};
                state.dead = true;
                EXPECT_FALSE(inboxes.busy(node));
            }
            if (::testing::Test::HasFailure())
                return;
            EXPECT_EQ(inboxes.hasQueued(node), !state.queue.empty());
            inboxes.checkInboxes(nodes);
        }
    }
}

TEST(StageTable, ReleasedRangesAreReusedAndLiveRangesNeverOverlap)
{
    const int instances = instanceBudget(200);
    for (int inst = 0; inst < instances; ++inst) {
        std::ostringstream replay;
        replay << "replay: stage-table instance_seed=" << (9000 + inst);
        SCOPED_TRACE(replay.str());
        Rng rng(static_cast<uint64_t>(9000 + inst));
        const int max_stages = static_cast<int>(rng.nextInt(1, 6));
        StageTable table(max_stages);
        struct Range
        {
            uint32_t first;
            uint32_t size;
            int owner;
        };
        std::vector<Range> live;
        // Per length, released first stages, most recent last.
        std::vector<std::vector<uint32_t>> released(
            static_cast<size_t>(max_stages) + 1);
        uint32_t end = 0;
        int next_owner = 0;
        const int ops = static_cast<int>(rng.nextInt(20, 300));
        for (int op = 0; op < ops; ++op) {
            if (live.empty() || rng.nextBounded(100) < 55) {
                const auto size = static_cast<uint32_t>(
                    rng.nextInt(1, max_stages));
                std::vector<uint32_t> &free_ranges = released[size];
                const uint32_t first = table.allocate(size);
                if (free_ranges.empty()) {
                    ASSERT_EQ(first, end);
                    end += size;
                } else {
                    ASSERT_EQ(first, free_ranges.back());
                    free_ranges.pop_back();
                }
                for (const Range &other : live) {
                    ASSERT_TRUE(first + size <= other.first ||
                                other.first + other.size <= first)
                        << "[" << first << ", " << first + size
                        << ") overlaps [" << other.first << ", "
                        << other.first + other.size << ")";
                }
                const int owner = next_owner++;
                for (uint32_t s = 0; s < size; ++s) {
                    table[first + s] = Stage{owner, static_cast<int>(s),
                                             static_cast<int>(s) + 1, s,
                                             0.0};
                }
                live.push_back({first, size, owner});
            } else {
                const size_t pick = rng.nextBounded(live.size());
                const Range range = live[pick];
                live.erase(live.begin() + static_cast<long>(pick));
                table.release(range.first, range.size);
                released[range.size].push_back(range.first);
            }
            // Every live range still holds what its owner wrote.
            for (const Range &range : live) {
                const scheduler::Pipeline &pipeline =
                    table.pipeline(range.first, range.size);
                ASSERT_EQ(pipeline.size(), range.size);
                for (uint32_t s = 0; s < range.size; ++s) {
                    ASSERT_EQ(pipeline[s].node, range.owner);
                    ASSERT_EQ(pipeline[s].startLayer, static_cast<int>(s));
                    ASSERT_EQ(table[range.first + s].outLink, s);
                }
            }
        }
    }
}

TEST(StageTable, GrowingWithinItsReservedRoomNeverMovesTheTable)
{
    // A table that moved would hold its old and new storage at once.
    StageTable table(3);
    table.reserve(3000);
    ASSERT_EQ(table.allocate(3), 0u);
    table[0] = Stage{7, 0, 1, 0, 0.0};
    const Stage *storage = &table[0];
    for (uint32_t r = 1; r < 1000; ++r)
        ASSERT_EQ(table.allocate(3), 3 * r);
    EXPECT_EQ(&table[0], storage);
    EXPECT_EQ(table.pipeline(0, 3).front().node, 7);
}

} // namespace
} // namespace sim
} // namespace helix
