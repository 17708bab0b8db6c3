/**
 * @file
 * Property harness for multi-tenant fair-share serving: admission
 * control, preemption, and per-tenant SLO accounting
 * (scheduler/fair_share.h + the sim/simulator.cpp tenancy layer).
 *
 * Five pinned properties:
 *   1. Weighted max-min: the controller's shares split the live
 *      capacity in weight proportion over demanding tenants, and
 *      popNext always serves the most under-share eligible tenant
 *      (randomized op sequences, invariants re-derived independently
 *      from the public API); one tenant, declared or implicit, is a
 *      plain FIFO that never names a preemption victim; and a model
 *      that sees only exact public values (normalizedUsage, queue
 *      counts, weights, capacity) predicts every checkPreemption
 *      result and popNext pick, and every fairShare bit.
 *   2. Jain fairness: symmetric tenants under saturating load end
 *      with a weight-normalized Jain index near 1.
 *   3. Preemption is epoch-safe: a preemption-heavy scenario keeps
 *      exact per-tenant/global accounting (no token or request is
 *      double-counted).
 *   4. Zero or one tenant: one admission queue, no arbitration. Both
 *      give the same SimMetrics fingerprint AND the same JSON/CSV
 *      emitter bytes, with no tenant statistics.
 *   5. Randomized multi-tenant instances are exactly accounted and
 *      reproduce byte-identically (fingerprint and emitter bytes)
 *      when rerun with a fresh scheduler and simulator.
 *
 * Instances are drawn from fixed seeds; HELIX_FUZZ_ITERS rescales the
 * randomized budgets (soak in CI, quick local smoke). Every
 * randomized assertion carries one replay line that reproduces the
 * instance.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/generator.h"
#include "cluster/profiler.h"
#include "core/helix.h"
#include "model/transformer.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "scheduler/fair_share.h"
#include "scheduler/scheduler.h"
#include "sim/simulator.h"
#include "sim_fingerprint.h"
#include "trace/trace.h"
#include "util/compare.h"
#include "util/random.h"

namespace helix {
namespace sim {
namespace {

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

// ---------------------------------------------------------------
// Property 1: the controller's weighted max-min invariants, checked
// against an independent re-derivation over randomized op sequences.
// ---------------------------------------------------------------

TEST(Fairness, ControllerWeightedMaxMinInvariant)
{
    const int instances = instanceBudget(8);
    for (int inst = 0; inst < instances; ++inst) {
        std::ostringstream replay;
        replay << "replay: controller instance_seed=" << (1000 + inst);
        Rng rng(static_cast<uint64_t>(1000 + inst));
        const int n = static_cast<int>(rng.nextInt(1, 4));
        scheduler::FairShareController::Config config;
        for (int t = 0; t < n; ++t) {
            scheduler::Tenant tenant;
            tenant.name = "t" + std::to_string(t);
            tenant.weight = rng.nextUniform(0.5, 4.0);
            config.tenants.push_back(tenant);
        }
        config.starvationTolerance = rng.nextUniform(0.3, 0.9);
        config.preemptionTimeoutS = 1.0;
        const double tol = config.starvationTolerance;
        scheduler::FairShareController fair(config);
        const double capacity = rng.nextUniform(500.0, 2000.0);
        fair.setCapacity(capacity);

        double now = 0.0;
        int next_request = 0;
        std::map<int, int> tenant_of; // request index -> tenant
        for (int step = 0; step < 400; ++step) {
            now += rng.nextUniform(0.01, 0.1);
            int t = static_cast<int>(
                rng.nextBounded(static_cast<uint64_t>(n)));
            double action = rng.nextDouble();
            if (action < 0.40) {
                tenant_of[next_request] = t;
                fair.enqueue(t, next_request++);
            } else if (action < 0.70) {
                // Re-derive the documented pick BEFORE mutating (the
                // pop itself can shrink the demanding set and move
                // every share): the most under-share tenant with
                // queued work, skipping over-share tenants only
                // while someone demanding sits below its share.
                std::vector<double> normalized_before(
                    static_cast<size_t>(n));
                bool someone_below = false;
                for (int k = 0; k < n; ++k) {
                    normalized_before[static_cast<size_t>(k)] =
                        fair.normalizedUsage(k, now);
                    bool demanding = fair.queuedCount(k) > 0 ||
                                     fair.inFlight(k) > 0;
                    if (demanding &&
                        normalized_before[static_cast<size_t>(k)] <
                            1.0)
                        someone_below = true;
                }
                int expected = -1;
                double best = 0.0;
                for (int k = 0; k < n; ++k) {
                    if (fair.queuedCount(k) == 0)
                        continue;
                    double normalized =
                        normalized_before[static_cast<size_t>(k)];
                    if (someone_below && normalized > 1.0 + tol)
                        continue; // held over-share tenant
                    if (expected < 0 || normalized < best) {
                        expected = k;
                        best = normalized;
                    }
                }
                int request = fair.popNext(now);
                if (expected < 0) {
                    EXPECT_EQ(request, -1)
                        << replay.str() << " step=" << step;
                } else {
                    ASSERT_GE(request, 0)
                        << replay.str() << " step=" << step;
                    int got = tenant_of.at(request);
                    double got_norm =
                        normalized_before[static_cast<size_t>(got)];
                    EXPECT_LE(got_norm, best + 1e-12)
                        << replay.str() << " step=" << step;
                    EXPECT_FALSE(someone_below &&
                                 got_norm > 1.0 + tol)
                        << replay.str() << " step=" << step
                        << " (popped a held over-share tenant)";
                    fair.onAdmitted(got);
                }
            } else if (action < 0.85) {
                if (fair.inFlight(t) > 0)
                    fair.onFinished(t);
            } else {
                int burst = static_cast<int>(rng.nextInt(1, 50));
                for (int b = 0; b < burst; ++b)
                    fair.noteDecodeToken(t, now);
            }
            // A named victim is another tenant with in-flight work
            // over share beyond tolerance; one tenant never has one.
            int victim = fair.checkPreemption(now);
            if (n == 1) {
                EXPECT_EQ(victim, -1) << replay.str() << " step=" << step;
            } else if (victim >= 0) {
                EXPECT_GT(fair.inFlight(victim), 0)
                    << replay.str() << " step=" << step;
                EXPECT_GT(fair.normalizedUsage(victim, now), 1.0 + tol)
                    << replay.str() << " step=" << step;
            }

            // Shares split the capacity weight-proportionally over
            // the demanding set, exactly.
            double demanding_weight = 0.0;
            for (int k = 0; k < n; ++k) {
                if (fair.queuedCount(k) > 0 || fair.inFlight(k) > 0)
                    demanding_weight +=
                        config.tenants[static_cast<size_t>(k)].weight;
            }
            if (demanding_weight <= 0.0)
                continue;
            double share_sum = 0.0;
            for (int k = 0; k < n; ++k) {
                bool demanding = fair.queuedCount(k) > 0 ||
                                 fair.inFlight(k) > 0;
                if (!demanding)
                    continue;
                double share = fair.fairShare(k);
                share_sum += share;
                double weight =
                    config.tenants[static_cast<size_t>(k)].weight;
                EXPECT_NEAR(share,
                            weight / demanding_weight * capacity,
                            1e-6 * capacity)
                    << replay.str() << " step=" << step
                    << " tenant=" << k;
            }
            EXPECT_NEAR(share_sum, capacity, 1e-6 * capacity)
                << replay.str() << " step=" << step;
        }
    }
}

TEST(Fairness, NoTenantsIsOneFifoQueue)
{
    scheduler::FairShareController fair(
        scheduler::FairShareController::Config{});
    EXPECT_EQ(fair.numTenants(), 1);
    EXPECT_FALSE(fair.active());
    fair.setCapacity(100.0);
    for (int request = 0; request < 4; ++request)
        fair.enqueue(0, request);
    EXPECT_EQ(fair.popNext(0.0), 0);
    fair.onAdmitted(0);
    EXPECT_EQ(fair.popNext(0.1), 1);
    // A refusal puts the request back at the head.
    fair.requeueFront(0, 1);
    EXPECT_EQ(fair.popNext(0.2), 1);
    fair.onAdmitted(0);
    for (int b = 0; b < 100; ++b)
        fair.noteDecodeToken(0, 0.3);
    EXPECT_EQ(fair.checkPreemption(50.0), -1);
    EXPECT_EQ(fair.popNext(50.0), 2);
    EXPECT_EQ(fair.popNext(50.0), 3);
    EXPECT_EQ(fair.popNext(50.0), -1);
    EXPECT_EQ(fair.checkPreemption(100.0), -1);
}

/**
 * The controller's documented decisions re-derived from exact public
 * values: the model keeps its own starvation clocks and a copy of
 * every queue, and compares normalizedUsage (the exact definition)
 * with each limit, so it never sees the controller's cached weight
 * sum or its undecayed bound.
 */
struct SweepModel
{
    const scheduler::FairShareController &fair;
    double tolerance;
    double timeoutS;
    std::vector<double> starvingSince;
    std::vector<std::deque<int>> queues;
    /** Comparisons whose exact value sat on their limit. */
    long atLimit = 0;

    SweepModel(const scheduler::FairShareController &controller,
               const scheduler::FairShareController::Config &config)
        : fair(controller), tolerance(config.starvationTolerance),
          timeoutS(config.preemptionTimeoutS),
          starvingSince(static_cast<size_t>(controller.numTenants()), -1.0),
          queues(static_cast<size_t>(controller.numTenants()))
    {
    }

    bool
    demanding(int t) const
    {
        return fair.queuedCount(t) > 0 || fair.inFlight(t) > 0;
    }

    double
    normalized(int t, double now, double limit)
    {
        const double value = fair.normalizedUsage(t, now);
        if (sameValue(value, limit))
            ++atLimit;
        return value;
    }

    /** The tenant popNext serves at @p now, or -1. */
    int
    pick(double now)
    {
        const int n = fair.numTenants();
        if (n < 2)
            return queues[0].empty() ? -1 : 0;
        bool someone_below = false;
        for (int t = 0; t < n && !someone_below; ++t)
            someone_below = demanding(t) && normalized(t, now, 1.0) < 1.0;
        int best = -1;
        double best_usage = 0.0;
        for (int t = 0; t < n; ++t) {
            if (queues[static_cast<size_t>(t)].empty())
                continue;
            const double usage = normalized(t, now, 1.0 + tolerance);
            if (someone_below && usage > 1.0 + tolerance)
                continue;
            if (best < 0 || usage < best_usage) {
                best = t;
                best_usage = usage;
            }
        }
        return best;
    }

    /** What checkPreemption(now) returns; advances the model clocks. */
    int
    sweep(double now)
    {
        const int n = fair.numTenants();
        if (n < 2 || timeoutS < 0.0)
            return -1;
        int starving = -1;
        for (int t = 0; t < n; ++t) {
            double &since = starvingSince[static_cast<size_t>(t)];
            if (!demanding(t) || !(normalized(t, now, tolerance) < tolerance)) {
                since = -1.0;
                continue;
            }
            if (since < 0.0)
                since = now;
            if (now - since >= timeoutS && starving < 0)
                starving = t;
        }
        if (starving < 0)
            return -1;
        int victim = -1;
        double victim_usage = 0.0;
        for (int t = 0; t < n; ++t) {
            if (t == starving || fair.inFlight(t) <= 0)
                continue;
            const double usage = normalized(t, now, 1.0 + tolerance);
            if (usage <= 1.0 + tolerance)
                continue;
            if (victim < 0 || usage > victim_usage) {
                victim = t;
                victim_usage = usage;
            }
        }
        if (victim >= 0)
            starvingSince[static_cast<size_t>(starving)] = -1.0;
        return victim;
    }
};

TEST(Fairness, StarvationSweepMatchesExactEvaluation)
{
    // Half the instances run on a lattice: weights, capacities and
    // the tolerance are small binary fractions, tokens come in fives
    // and time steps are 0 or 1e4 s, which decays every mass to
    // exactly 0. So the mass stays an integer, the bound equals the
    // exact value, and normalized usage lands exactly on the limits
    // 0.5, 1 and 1.5.
    const int instances = instanceBudget(64);
    long at_limit = 0;
    for (int inst = 0; inst < instances; ++inst) {
        const uint64_t seed = static_cast<uint64_t>(5000 + inst);
        const bool lattice = inst % 2 == 0;
        std::ostringstream replay;
        replay << "replay: sweep instance_seed=" << seed
               << " lattice=" << lattice;
        Rng rng(seed);
        const int n = static_cast<int>(rng.nextInt(1, 4));
        scheduler::FairShareController::Config config;
        for (int t = 0; t < n; ++t) {
            scheduler::Tenant tenant;
            tenant.name = "t" + std::to_string(t);
            tenant.weight = lattice ? static_cast<double>(
                                          1 << rng.nextBounded(2))
                                    : rng.nextUniform(0.5, 4.0);
            config.tenants.push_back(tenant);
        }
        config.starvationTolerance =
            lattice ? 0.5 : rng.nextUniform(0.3, 0.9);
        const double timeouts[] = {-1.0, 0.0, 0.0, 0.25, 1.0};
        config.preemptionTimeoutS = timeouts[rng.nextBounded(5)];
        scheduler::FairShareController fair(config);
        SweepModel model(fair, config);
        const auto pickCapacity = [&] {
            if (rng.nextBounded(6) == 0)
                return 0.0;
            return lattice ? 10.0 * static_cast<double>(
                                        1 << rng.nextBounded(3))
                           : rng.nextUniform(50.0, 2000.0);
        };
        double capacity = pickCapacity();
        fair.setCapacity(capacity);

        std::vector<std::vector<int>> running(static_cast<size_t>(n));
        double now = 0.0;
        int next_request = 0;
        for (int step = 0; step < 400; ++step) {
            const double jump = rng.nextDouble();
            if (jump < (lattice ? 0.1 : 0.05))
                now += 1e4;
            else if (!lattice && jump >= 0.3)
                now += rng.nextUniform(0.0, 0.2);
            const int t = static_cast<int>(
                rng.nextBounded(static_cast<uint64_t>(n)));
            std::deque<int> &queue = model.queues[static_cast<size_t>(t)];
            std::vector<int> &admitted = running[static_cast<size_t>(t)];
            std::ostringstream failure;
            const double action = rng.nextDouble();
            if (action < 0.30) {
                fair.enqueue(t, next_request);
                queue.push_back(next_request++);
            } else if (action < 0.55) {
                const int expected_tenant = model.pick(now);
                const int expected =
                    expected_tenant < 0
                        ? -1
                        : model.queues[static_cast<size_t>(expected_tenant)]
                              .front();
                const int request = fair.popNext(now);
                if (request != expected) {
                    failure << "popNext " << request << ", model "
                            << expected;
                } else if (request >= 0) {
                    std::deque<int> &from =
                        model.queues[static_cast<size_t>(expected_tenant)];
                    from.pop_front();
                    const uint64_t outcome = rng.nextBounded(10);
                    if (outcome < 2) {
                        // A schedule refusal: back to the head.
                        fair.requeueFront(expected_tenant, request);
                        from.push_front(request);
                    } else if (outcome == 2) {
                        // Rejected: dropped from the queue for good.
                    } else {
                        fair.onAdmitted(expected_tenant);
                        running[static_cast<size_t>(expected_tenant)]
                            .push_back(request);
                    }
                }
            } else if (action < 0.65) {
                if (!admitted.empty()) {
                    const size_t done = rng.nextBounded(admitted.size());
                    admitted.erase(admitted.begin() +
                                   static_cast<std::ptrdiff_t>(done));
                    fair.onFinished(t);
                }
            } else if (action < 0.70) {
                // A preemption or churn restart of the newest request.
                if (!admitted.empty()) {
                    fair.onFinished(t);
                    fair.requeueFront(t, admitted.back());
                    queue.push_front(admitted.back());
                    admitted.pop_back();
                }
            } else if (action < 0.95) {
                const int burst = static_cast<int>(
                    lattice ? 5 * rng.nextInt(1, 8) : rng.nextInt(1, 40));
                for (int b = 0; b < burst; ++b)
                    fair.noteDecodeToken(t, now);
            } else {
                capacity = pickCapacity();
                fair.setCapacity(capacity);
            }
            if (failure.str().empty()) {
                const int expected = model.sweep(now);
                const int victim = fair.checkPreemption(now);
                if (victim != expected)
                    failure << "checkPreemption " << victim << ", model "
                            << expected;
            }
            // Shares from scratch: w / (sum of demanding weights) * C.
            double demanding_sum = 0.0;
            double total = 0.0;
            for (int k = 0; k < n; ++k) {
                total += config.tenants[static_cast<size_t>(k)].weight;
                if (model.demanding(k))
                    demanding_sum +=
                        config.tenants[static_cast<size_t>(k)].weight;
            }
            const double weight_sum =
                demanding_sum > 0.0 ? demanding_sum : total;
            for (int k = 0; k < n && failure.str().empty(); ++k) {
                const double expected =
                    capacity > 0.0
                        ? config.tenants[static_cast<size_t>(k)].weight /
                              weight_sum * capacity
                        : 0.0;
                if (!sameValue(fair.fairShare(k), expected))
                    failure << std::hexfloat << "fairShare(" << k
                            << ") " << fair.fairShare(k) << ", from scratch "
                            << expected;
            }
            if (!failure.str().empty()) {
                ADD_FAILURE() << replay.str() << " step=" << step << ": "
                              << failure.str();
                break;
            }
        }
        at_limit += model.atLimit;
    }
    // The lattice must reach the limits, or the strict comparisons
    // above go untested where the bound equals the exact value.
    EXPECT_GT(at_limit, 0);
}

// ---------------------------------------------------------------
// End-to-end harness over generated clusters.
// ---------------------------------------------------------------

struct Harness
{
    cluster::ClusterSpec clus;
    cluster::Profiler profiler;
    placement::ModelPlacement placement;
    std::unique_ptr<scheduler::Topology> topo;

    Harness(const char *preset, int num_nodes)
        : clus(buildCluster(preset, num_nodes)),
          profiler(model::catalog::llama30b())
    {
        placement::SwarmPlanner planner;
        placement = planner.plan(clus, profiler);
        placement::PlacementGraph graph(clus, profiler, placement);
        topo = std::make_unique<scheduler::Topology>(
            clus, profiler, placement, graph);
    }

    static cluster::ClusterSpec buildCluster(const char *preset,
                                             int num_nodes)
    {
        cluster::gen::GeneratorConfig config;
        config.preset = preset;
        config.numNodes = num_nodes;
        config.seed = 42;
        auto clus = cluster::gen::generate(config);
        if (!clus.has_value())
            throw std::runtime_error("generator rejected preset");
        return *clus;
    }

    SimMetrics run(const std::vector<trace::Request> &requests,
                   const SimConfig &sim_config) const
    {
        scheduler::HelixScheduler sched(*topo);
        ClusterSimulator simulator(clus, profiler, placement, sched,
                                   sim_config);
        return simulator.run(requests);
    }
};

/** Short-request trace, labelled by helix::labelTenants as
 *  helix::makeTrace labels its traces. */
std::vector<trace::Request>
makeTenantTrace(int num_requests, double rate, uint64_t trace_seed,
                const std::vector<scheduler::Tenant> &tenants)
{
    trace::LengthModel lengths;
    lengths.targetMeanPrompt = 120;
    lengths.maxPromptLen = 512;
    lengths.targetMeanOutput = 40;
    lengths.maxOutputLen = 128;
    trace::TraceGenerator gen(trace_seed, lengths);
    trace::PoissonArrivals arrivals(rate);
    auto requests = gen.generateCount(num_requests, arrivals);
    labelTenants(requests, tenants, trace_seed);
    return requests;
}

SimConfig
tenantSimConfig(const std::vector<scheduler::Tenant> &tenants,
                double tolerance, double timeout_s)
{
    SimConfig sim_config;
    sim_config.warmupSeconds = 5.0;
    sim_config.measureSeconds = 40.0;
    sim_config.tenants = tenants;
    sim_config.starvationTolerance = tolerance;
    sim_config.preemptionTimeoutS = timeout_s;
    return sim_config;
}

/** Per-tenant counters must partition the global counters exactly:
 *  nothing double-counted, nothing lost. */
void
expectExactTenantAccounting(const SimMetrics &metrics,
                            const std::string &replay)
{
    long arrived = 0, admitted = 0, completed = 0, rejected = 0;
    long preempted = 0, tokens = 0;
    for (const SimMetrics::TenantStat &t : metrics.tenantStats) {
        arrived += t.requestsArrived;
        admitted += t.requestsAdmitted;
        completed += t.requestsCompleted;
        rejected += t.requestsRejected;
        preempted += t.requestsPreempted;
        tokens += t.decodeTokensInWindow;
    }
    EXPECT_EQ(arrived, metrics.requestsArrived) << replay;
    EXPECT_EQ(admitted, metrics.requestsAdmitted) << replay;
    EXPECT_EQ(completed, metrics.requestsCompleted) << replay;
    EXPECT_EQ(rejected, metrics.requestsRejected) << replay;
    EXPECT_EQ(preempted, metrics.requestsPreempted) << replay;
    EXPECT_EQ(tokens, metrics.decodeTokensInWindow) << replay;
    EXPECT_LE(metrics.requestsCompleted, metrics.requestsArrived)
        << replay;
    EXPECT_GE(metrics.jainIndex, 0.0) << replay;
    EXPECT_LE(metrics.jainIndex, 1.0 + 1e-12) << replay;
}

// ---------------------------------------------------------------
// Property 2: symmetric tenants under saturating load share evenly —
// weight-normalized Jain index near 1.
// ---------------------------------------------------------------

TEST(Fairness, JainIndexNearOneUnderSymmetricSaturation)
{
    Harness harness("homogeneous", 16);
    std::vector<scheduler::Tenant> tenants(3);
    for (int t = 0; t < 3; ++t) {
        tenants[static_cast<size_t>(t)].name =
            "sym" + std::to_string(t);
        tenants[static_cast<size_t>(t)].weight = 1.0;
    }
    auto requests = makeTenantTrace(300, 9.0, 7, tenants);
    SimMetrics metrics = harness.run(
        requests, tenantSimConfig(tenants, 0.8, 5.0));
    std::string replay =
        "replay: jain preset=homogeneous n=16 tenants=3 trace_seed=7";
    EXPECT_GT(metrics.requestsCompleted, 0) << replay;
    ASSERT_EQ(metrics.tenantStats.size(), 3u) << replay;
    expectExactTenantAccounting(metrics, replay);
    // Symmetric demand + equal weights: near-perfect fairness.
    EXPECT_GE(metrics.jainIndex, 0.9) << replay << " tenant stats:\n"
                                      << fingerprint(metrics);
}

// ---------------------------------------------------------------
// Property 3: preemption-heavy scenario — epoch-safe accounting.
// ---------------------------------------------------------------

TEST(Fairness, PreemptionEpochSafeExactAccounting)
{
    Harness harness("two-tier", 16);
    std::vector<scheduler::Tenant> tenants(2);
    tenants[0].name = "flood";
    tenants[0].weight = 1.0;
    tenants[0].mix = 0.95;
    tenants[1].name = "trickle";
    tenants[1].weight = 8.0;
    tenants[1].mix = 0.05;
    tenants[1].sloTtftS = 2.0;
    tenants[1].sloTpotS = 0.5;
    auto requests = makeTenantTrace(500, 30.0, 11, tenants);
    // The heavy-weight trickle tenant owns 8/9 of the capacity, so
    // the flooding tenant runs far over its small share; a tight
    // tolerance and timeout make the trickle tenant's starvation
    // repeatedly name the flood tenant as a preemption victim.
    SimConfig sim_config = tenantSimConfig(tenants, 0.5, 0.5);
    SimMetrics metrics = harness.run(requests, sim_config);
    std::string replay =
        "replay: preempt preset=two-tier n=16 trace_seed=11 "
        "tolerance=0.5 timeout=0.5";
    EXPECT_GT(metrics.requestsCompleted, 0) << replay;
    EXPECT_GT(metrics.requestsPreempted, 0)
        << replay << " (scenario no longer triggers preemption)";
    expectExactTenantAccounting(metrics, replay);
    ASSERT_EQ(metrics.tenantStats.size(), 2u) << replay;
    const SimMetrics::TenantStat &flood = metrics.tenantStats[0];
    // SLO attainment is defined only for the tenant that declared
    // SLOs.
    EXPECT_EQ(flood.ttftAttainment, -1.0) << replay;
    EXPECT_EQ(flood.tpotAttainment, -1.0) << replay;
}

// ---------------------------------------------------------------
// Property 4: zero or one tenant — one admission queue, no
// arbitration: identical bytes, emitter bytes included.
// ---------------------------------------------------------------

TEST(Fairness, ZeroAndOneTenantGiveIdenticalBytes)
{
    Harness harness("homogeneous", 16);
    auto requests = makeTenantTrace(200, 6.0, 3, {});
    SimConfig no_tenants;
    no_tenants.warmupSeconds = 5.0;
    no_tenants.measureSeconds = 40.0;
    SimMetrics base = harness.run(requests, no_tenants);
    EXPECT_GT(base.requestsCompleted, 0);
    EXPECT_TRUE(base.tenantStats.empty());
    EXPECT_EQ(base.requestsPreempted, 0);
    EXPECT_EQ(base.jainIndex, 0.0);

    // One declared tenant: arbitration stays off — same metrics, same
    // emitter bytes, no tenant columns.
    std::vector<scheduler::Tenant> one(1);
    one[0].name = "only";
    one[0].weight = 3.0;
    one[0].sloTtftS = 1.0;
    SimConfig single = tenantSimConfig(one, 0.5, 0.5);
    single.warmupSeconds = no_tenants.warmupSeconds;
    single.measureSeconds = no_tenants.measureSeconds;
    SimMetrics one_tenant = harness.run(requests, single);
    EXPECT_EQ(fingerprint(base), fingerprint(one_tenant));
    EXPECT_EQ(emitterBytes(base, "solo"),
              emitterBytes(one_tenant, "solo"));
    EXPECT_TRUE(one_tenant.tenantStats.empty());
}

// ---------------------------------------------------------------
// Property 5: randomized multi-tenant instances are exactly
// accounted and reproduce byte for byte on a rerun.
// ---------------------------------------------------------------

TEST(Fairness, RandomizedInstancesExactlyAccountedAndReproducible)
{
    const char *presets[] = {"homogeneous", "two-tier",
                             "long-tail-heterogeneous",
                             "geo-distributed"};
    const int budget = instanceBudget(6);
    for (uint64_t inst = 0; inst < static_cast<uint64_t>(budget);
         ++inst) {
        Rng rng(0xfa12 + inst);
        const char *preset = presets[rng.nextBounded(4)];
        int num_nodes = rng.nextDouble() < 0.75 ? 16 : 64;
        int num_tenants = static_cast<int>(rng.nextInt(2, 4));
        std::vector<scheduler::Tenant> tenants(
            static_cast<size_t>(num_tenants));
        for (int t = 0; t < num_tenants; ++t) {
            scheduler::Tenant &tenant =
                tenants[static_cast<size_t>(t)];
            tenant.name = "r" + std::to_string(t);
            tenant.weight = rng.nextUniform(0.5, 4.0);
            if (rng.nextDouble() < 0.5) {
                tenant.sloTtftS = rng.nextUniform(0.5, 3.0);
                tenant.sloTpotS = rng.nextUniform(0.1, 0.5);
            }
        }
        double tolerance = rng.nextUniform(0.4, 0.9);
        double timeout_s = rng.nextUniform(0.5, 3.0);
        double rate = num_nodes == 16 ? 8.0 : 10.0;
        uint64_t trace_seed = 100 + inst;

        std::ostringstream replay;
        replay << "replay: random preset=" << preset
               << " n=" << num_nodes << " tenants=" << num_tenants
               << " instance_seed=" << (0xfa12 + inst)
               << " trace_seed=" << trace_seed
               << " tolerance=" << tolerance
               << " timeout=" << timeout_s;

        Harness harness(preset, num_nodes);
        auto requests = makeTenantTrace(
            num_nodes == 16 ? 200 : 240, rate, trace_seed, tenants);
        SimConfig sim_config =
            tenantSimConfig(tenants, tolerance, timeout_s);
        SimMetrics first = harness.run(requests, sim_config);
        EXPECT_GT(first.requestsCompleted, 0) << replay.str();
        expectExactTenantAccounting(first, replay.str());
        SimMetrics rerun = harness.run(requests, sim_config);
        EXPECT_EQ(fingerprint(first), fingerprint(rerun)) << replay.str();
        EXPECT_EQ(emitterBytes(first, "rnd"), emitterBytes(rerun, "rnd"))
            << replay.str();
    }
    SUCCEED() << budget << " randomized fairness instances";
}

} // namespace
} // namespace sim
} // namespace helix
