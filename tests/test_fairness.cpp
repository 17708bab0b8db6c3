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
 *      from the public API).
 *   2. Jain fairness: symmetric tenants under saturating load end
 *      with a weight-normalized Jain index near 1.
 *   3. Preemption is epoch-safe: a preemption-heavy scenario keeps
 *      exact per-tenant/global accounting (no token or request is
 *      double-counted).
 *   4. Zero or one tenant is byte-identical to the pre-tenancy path:
 *      same SimMetrics fingerprint AND same JSON/CSV emitter bytes.
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

#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/generator.h"
#include "cluster/profiler.h"
#include "model/transformer.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "scheduler/fair_share.h"
#include "scheduler/scheduler.h"
#include "sim/simulator.h"
#include "sim_fingerprint.h"
#include "trace/trace.h"
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
        const int n = static_cast<int>(rng.nextInt(2, 4));
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

/** Short-request trace; tenant labels drawn mix-proportionally from
 *  a dedicated forked stream, mirroring helix::makeTrace. */
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
    if (tenants.size() < 2)
        return requests;
    bool explicit_mix = tenants.front().mix >= 0.0;
    double total = 0.0;
    for (const scheduler::Tenant &tenant : tenants)
        total += explicit_mix ? tenant.mix : tenant.weight;
    std::vector<double> cumulative;
    double acc = 0.0;
    for (const scheduler::Tenant &tenant : tenants) {
        acc += (explicit_mix ? tenant.mix : tenant.weight) / total;
        cumulative.push_back(acc);
    }
    Rng tenant_rng = Rng(trace_seed).fork(0x74656e616e74ULL);
    for (trace::Request &req : requests) {
        double u = tenant_rng.nextDouble();
        int t = 0;
        while (t + 1 < static_cast<int>(cumulative.size()) &&
               u >= cumulative[static_cast<size_t>(t)]) {
            ++t;
        }
        req.tenant = t;
    }
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
    long arrived = 0, completed = 0, rejected = 0, preempted = 0;
    long tokens = 0;
    for (const SimMetrics::TenantStat &t : metrics.tenantStats) {
        arrived += t.requestsArrived;
        completed += t.requestsCompleted;
        rejected += t.requestsRejected;
        preempted += t.requestsPreempted;
        tokens += t.decodeTokensInWindow;
    }
    EXPECT_EQ(arrived, metrics.requestsArrived) << replay;
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
// Property 4: zero or one tenant — byte-identical to the pre-tenancy
// path, emitter bytes included.
// ---------------------------------------------------------------

TEST(Fairness, SingleTenantByteIdenticalToPreTenancyPath)
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

    // One declared tenant: the gate must keep the original admission
    // path — same metrics, same emitter bytes, no tenant columns.
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
