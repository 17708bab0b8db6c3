/**
 * @file
 * Tests for the experiment-runner subsystem: runner-vs-direct
 * equivalence on the paper's three cluster setups (Fig. 6/7/8),
 * thread-count invariance, declarative sweeps, registries, and the
 * JSON/CSV emitters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>

#include "exp/experiment.h"
#include "placement/helix_planner.h"

namespace helix {
namespace exp {
namespace {

/** Smoke-scale run so each simulation takes milliseconds. */
RunConfig
smokeRun(bool online)
{
    RunConfig run;
    if (online) {
        run.arrivals = ArrivalKind::Diurnal;
        run.utilization = 0.75;
    }
    run.simulation.warmupSeconds = 1.0;
    run.simulation.measureSeconds = 3.0;
    run.seed = online ? 43 : 42;
    return run;
}

void
expectMetricsIdentical(const sim::SimMetrics &a,
                       const sim::SimMetrics &b)
{
    EXPECT_EQ(a.decodeThroughput, b.decodeThroughput);
    EXPECT_EQ(a.promptThroughput, b.promptThroughput);
    EXPECT_EQ(a.requestsArrived, b.requestsArrived);
    EXPECT_EQ(a.requestsAdmitted, b.requestsAdmitted);
    EXPECT_EQ(a.requestsCompleted, b.requestsCompleted);
    EXPECT_EQ(a.requestsRejected, b.requestsRejected);
    EXPECT_EQ(a.requestsRestarted, b.requestsRestarted);
    EXPECT_EQ(a.decodeTokensInWindow, b.decodeTokensInWindow);
    EXPECT_EQ(a.promptTokensInWindow, b.promptTokensInWindow);
    EXPECT_EQ(a.avgKvUtilization, b.avgKvUtilization);
    EXPECT_EQ(a.promptLatency.count(), b.promptLatency.count());
    EXPECT_EQ(a.promptLatency.mean(), b.promptLatency.mean());
    EXPECT_EQ(a.promptLatency.percentile(95),
              b.promptLatency.percentile(95));
    EXPECT_EQ(a.decodeLatency.count(), b.decodeLatency.count());
    EXPECT_EQ(a.decodeLatency.mean(), b.decodeLatency.mean());
    EXPECT_EQ(a.decodeLatency.percentile(95),
              b.decodeLatency.percentile(95));
    ASSERT_EQ(a.flowEvents.size(), b.flowEvents.size());
    for (size_t i = 0; i < a.flowEvents.size(); ++i) {
        EXPECT_EQ(a.flowEvents[i].time, b.flowEvents[i].time);
        EXPECT_EQ(a.flowEvents[i].node, b.flowEvents[i].node);
        EXPECT_EQ(a.flowEvents[i].kind, b.flowEvents[i].kind);
        EXPECT_EQ(a.flowEvents[i].flow, b.flowEvents[i].flow);
    }
    ASSERT_EQ(a.nodeStats.size(), b.nodeStats.size());
    for (size_t i = 0; i < a.nodeStats.size(); ++i) {
        EXPECT_EQ(a.nodeStats[i].batches, b.nodeStats[i].batches);
        EXPECT_EQ(a.nodeStats[i].tokensProcessed,
                  b.nodeStats[i].tokensProcessed);
        EXPECT_EQ(a.nodeStats[i].busySeconds,
                  b.nodeStats[i].busySeconds);
    }
}

/**
 * The acceptance criterion for the runner: the clusters of the
 * Fig. 6/7/8 comparison specs (examples/fig6.exp, fig7.exp, fig8.exp:
 * single cluster, geo-distributed, high heterogeneity) produce the
 * same SimMetrics whether each ClusterSimulator is invoked directly
 * or dispatched through the thread-pool runner.
 */
TEST(RunJobs, MatchesDirectInvocationOnFigureSetups)
{
    struct Setup
    {
        const char *cluster;
        const char *model;
    };
    const Setup setups[] = {
        {"single24", "llama30b"}, // Fig. 6
        {"geo24", "llama30b"},    // Fig. 7
        {"hetero42", "llama70b"}, // Fig. 8
    };
    const SchedulerKind kinds[] = {SchedulerKind::Helix,
                                   SchedulerKind::Swarm,
                                   SchedulerKind::FixedRoundRobin};

    for (const Setup &setup : setups) {
        auto clus = clusterByName(setup.cluster);
        auto model_spec = modelByName(setup.model);
        ASSERT_TRUE(clus && model_spec);
        auto planner = plannerByName("swarm", 0.05);
        ASSERT_NE(planner, nullptr);
        Deployment deployment(*clus, *model_spec, *planner);

        for (bool online : {false, true}) {
            RunConfig run = smokeRun(online);
            std::vector<Job> jobs;
            for (SchedulerKind kind : kinds) {
                Job job;
                job.label = toString(kind);
                job.deployment = &deployment;
                job.scheduler = kind;
                job.run = run;
                jobs.push_back(std::move(job));
            }
            auto results = runJobs(jobs, 3);
            ASSERT_EQ(results.size(), 3u);

            for (size_t i = 0; i < jobs.size(); ++i) {
                auto sched = makeScheduler(deployment, kinds[i]);
                auto direct = runExperiment(deployment, *sched, run);
                // Guard against vacuous equivalence: the saturating
                // offline runs must actually see traffic.
                if (!online) {
                    EXPECT_GT(direct.requestsArrived, 0)
                        << setup.cluster;
                }
                expectMetricsIdentical(results[i].metrics, direct);
                EXPECT_EQ(results[i].plannedThroughput,
                          deployment.plannedThroughput());
            }
        }
    }
}

TEST(RunJobs, ResultsIndependentOfThreadCount)
{
    auto clus = clusterByName("planner10");
    auto model_spec = modelByName("llama30b");
    ASSERT_TRUE(clus && model_spec);
    auto planner = plannerByName("swarm", 0.05);
    Deployment deployment(*clus, *model_spec, *planner);

    // Offline, online, bursty and churn arrivals over one window.
    RunConfig offline;
    offline.seed = 7;
    offline.simulation.warmupSeconds = 1.0;
    offline.simulation.measureSeconds = 4.0;
    RunConfig online = offline;
    online.arrivals = ArrivalKind::Diurnal;
    online.utilization = 0.75;
    RunConfig bursty = online;
    bursty.arrivals = ArrivalKind::Bursty;
    RunConfig churn = online;
    churn.simulation.churnEvents = {
        {sim::ChurnEvent::Kind::Fail, 0, 0.3 * 5.0}};
    std::vector<Job> jobs;
    for (const RunConfig &run : {offline, online, bursty, churn}) {
        Job job;
        job.label = toString(run.arrivals);
        job.deployment = &deployment;
        job.scheduler = SchedulerKind::Helix;
        job.run = run;
        jobs.push_back(std::move(job));
    }

    auto serial_results = runJobs(jobs, 1);
    auto parallel_results = runJobs(jobs, 4);
    ASSERT_EQ(serial_results.size(), parallel_results.size());
    for (size_t i = 0; i < serial_results.size(); ++i) {
        EXPECT_EQ(serial_results[i].label, parallel_results[i].label);
        expectMetricsIdentical(serial_results[i].metrics,
                               parallel_results[i].metrics);
    }
}

TEST(Emitters, JsonAndCsvCarryEveryRow)
{
    auto clus = clusterByName("planner10");
    auto model_spec = modelByName("llama30b");
    auto planner = plannerByName("swarm", 0.05);
    Deployment deployment(*clus, *model_spec, *planner);
    std::vector<Job> jobs;
    for (int i = 0; i < 2; ++i) {
        Job job;
        job.label = i == 0 ? "alpha" : "beta";
        job.deployment = &deployment;
        job.scheduler = SchedulerKind::Helix;
        job.run = smokeRun(false);
        jobs.push_back(std::move(job));
    }
    auto results = runJobs(jobs);

    std::string json = resultsToJson(results);
    EXPECT_EQ(json.front(), '[');
    EXPECT_NE(json.find("\"label\": \"alpha\""), std::string::npos);
    EXPECT_NE(json.find("\"label\": \"beta\""), std::string::npos);
    EXPECT_NE(json.find("\"decode_throughput\""), std::string::npos);
    EXPECT_NE(json.find("\"requests_restarted\""), std::string::npos);

    std::string csv = resultsToCsv(results);
    size_t lines = static_cast<size_t>(
        std::count(csv.begin(), csv.end(), '\n'));
    EXPECT_EQ(lines, results.size() + 1); // header + one per row
    EXPECT_EQ(csv.rfind("label,", 0), 0u);
    EXPECT_NE(csv.find("decode_latency_p99"), std::string::npos);
    EXPECT_NE(csv.find("churn_events"), std::string::npos);
}

/**
 * The exact bytes both emitters produce for a result with churn
 * events and zero-sample latency accumulators: empty samples emit
 * empty CSV fields / JSON nulls (a silent 0.0 is indistinguishable
 * from a real zero-latency measurement), and the churn log carries
 * each event's re-solved flow plus how it was re-solved
 * (repair | drift).
 */
TEST(Emitters, ZeroSampleStatsAndChurnEventsPinned)
{
    JobResult r;
    r.label = "empty";
    r.cluster = "c";
    r.model = "m";
    r.planner = "p";
    r.scheduler = "s";
    r.arrivals = "poisson";
    r.metrics.flowEvents.push_back(
        {12.5, 1, sim::ChurnEvent::Kind::Fail, 1000.0,
         sim::ResolveKind::Repair});
    r.metrics.flowEvents.push_back(
        {30.0, 1, sim::ChurnEvent::Kind::Recover, 2000.0,
         sim::ResolveKind::Repair});
    r.metrics.flowEvents.push_back(
        {45.0, 2, sim::ChurnEvent::Kind::Drift, 1500.0,
         sim::ResolveKind::Drift});

    EXPECT_EQ(
        resultsToCsv({r}),
        "label,cluster,model,planner,scheduler,arrivals,churn_events,"
        "planned_throughput,decode_throughput,prompt_throughput,"
        "prompt_latency_mean,prompt_latency_p50,prompt_latency_p95,"
        "prompt_latency_p99,decode_latency_mean,decode_latency_p50,"
        "decode_latency_p95,decode_latency_p99,requests_arrived,"
        "requests_admitted,requests_completed,requests_rejected,"
        "requests_restarted,avg_kv_utilization,wall_seconds\n"
        "\"empty\",\"c\",\"m\",\"p\",\"s\",\"poisson\","
        "\"fail:1@12.5=1000/repair;recover:1@30=2000/repair;"
        "drift:2@45=1500/drift\","
        "0,0,0,,,,,,,,,0,0,0,0,0,0,0\n");

    EXPECT_EQ(
        resultsToJson({r}),
        "[\n"
        "  {\"label\": \"empty\", \"cluster\": \"c\", "
        "\"model\": \"m\", \"planner\": \"p\", \"scheduler\": \"s\", "
        "\"arrivals\": \"poisson\", \"churn_events\": "
        "[{\"kind\": \"fail\", \"node\": 1, \"time\": 12.5, "
        "\"flow\": 1000, \"resolve\": \"repair\"}, "
        "{\"kind\": \"recover\", \"node\": 1, \"time\": 30, "
        "\"flow\": 2000, \"resolve\": \"repair\"}, "
        "{\"kind\": \"drift\", \"node\": 2, \"time\": 45, "
        "\"flow\": 1500, \"resolve\": \"drift\"}], "
        "\"planned_throughput\": 0, \"decode_throughput\": 0, "
        "\"prompt_throughput\": 0, \"prompt_latency_mean\": null, "
        "\"prompt_latency_p50\": null, \"prompt_latency_p95\": null, "
        "\"prompt_latency_p99\": null, \"decode_latency_mean\": null, "
        "\"decode_latency_p50\": null, \"decode_latency_p95\": null, "
        "\"decode_latency_p99\": null, \"requests_arrived\": 0, "
        "\"requests_admitted\": 0, \"requests_completed\": 0, "
        "\"requests_rejected\": 0, \"requests_restarted\": 0, "
        "\"avg_kv_utilization\": 0, \"wall_seconds\": 0}\n"
        "]\n");
}

/**
 * The exact bytes both emitters produce for a multi-tenant result.
 * The tenant columns are gated on per-tenant statistics being
 * present (ZeroSampleStatsAndChurnEventsPinned above pins that a
 * result WITHOUT tenants emits the original columns unchanged), and
 * undeclared SLO attainments render as "-" in CSV and null in JSON.
 */
TEST(Emitters, TenantColumnsPinned)
{
    JobResult r;
    r.label = "mt";
    r.cluster = "c";
    r.model = "m";
    r.planner = "p";
    r.scheduler = "s";
    r.arrivals = "poisson";
    r.metrics.requestsPreempted = 3;
    r.metrics.jainIndex = 0.9375;
    sim::SimMetrics::TenantStat alpha;
    alpha.name = "alpha";
    alpha.weight = 2.0;
    alpha.decodeThroughput = 100.5;
    alpha.requestsArrived = 10;
    alpha.requestsAdmitted = 8;
    alpha.requestsCompleted = 7;
    alpha.requestsRejected = 2;
    alpha.requestsPreempted = 1;
    alpha.sloTtftS = 2.0;
    alpha.ttftAttainment = 0.75;
    sim::SimMetrics::TenantStat beta;
    beta.name = "beta";
    beta.weight = 1.0;
    beta.decodeThroughput = 50.25;
    beta.requestsArrived = 5;
    beta.requestsAdmitted = 5;
    beta.requestsCompleted = 5;
    beta.requestsPreempted = 2;
    r.metrics.tenantStats = {alpha, beta};

    EXPECT_EQ(
        resultsToCsv({r}),
        "label,cluster,model,planner,scheduler,arrivals,churn_events,"
        "planned_throughput,decode_throughput,prompt_throughput,"
        "prompt_latency_mean,prompt_latency_p50,prompt_latency_p95,"
        "prompt_latency_p99,decode_latency_mean,decode_latency_p50,"
        "decode_latency_p95,decode_latency_p99,requests_arrived,"
        "requests_admitted,requests_completed,requests_rejected,"
        "requests_restarted,avg_kv_utilization,wall_seconds,"
        "requests_preempted,jain_index,tenant_stats\n"
        "\"mt\",\"c\",\"m\",\"p\",\"s\",\"poisson\",\"\","
        "0,0,0,,,,,,,,,0,0,0,0,0,0,0,"
        "3,0.9375,"
        "\"alpha:w=2:tput=100.5:arr=10:adm=8:done=7:rej=2:pre=1:"
        "ttft=0.75:tpot=-;"
        "beta:w=1:tput=50.25:arr=5:adm=5:done=5:rej=0:pre=2:"
        "ttft=-:tpot=-\"\n");

    EXPECT_EQ(
        resultsToJson({r}),
        "[\n"
        "  {\"label\": \"mt\", \"cluster\": \"c\", "
        "\"model\": \"m\", \"planner\": \"p\", \"scheduler\": \"s\", "
        "\"arrivals\": \"poisson\", \"churn_events\": [], "
        "\"planned_throughput\": 0, \"decode_throughput\": 0, "
        "\"prompt_throughput\": 0, \"prompt_latency_mean\": null, "
        "\"prompt_latency_p50\": null, \"prompt_latency_p95\": null, "
        "\"prompt_latency_p99\": null, \"decode_latency_mean\": null, "
        "\"decode_latency_p50\": null, \"decode_latency_p95\": null, "
        "\"decode_latency_p99\": null, \"requests_arrived\": 0, "
        "\"requests_admitted\": 0, \"requests_completed\": 0, "
        "\"requests_rejected\": 0, \"requests_restarted\": 0, "
        "\"avg_kv_utilization\": 0, \"wall_seconds\": 0, "
        "\"requests_preempted\": 3, \"jain_index\": 0.9375, "
        "\"tenants\": ["
        "{\"name\": \"alpha\", \"weight\": 2, "
        "\"decode_throughput\": 100.5, \"requests_arrived\": 10, "
        "\"requests_admitted\": 8, \"requests_completed\": 7, "
        "\"requests_rejected\": 2, \"requests_preempted\": 1, "
        "\"slo_ttft\": 2, \"slo_tpot\": 0, "
        "\"ttft_attainment\": 0.75, \"tpot_attainment\": null}, "
        "{\"name\": \"beta\", \"weight\": 1, "
        "\"decode_throughput\": 50.25, \"requests_arrived\": 5, "
        "\"requests_admitted\": 5, \"requests_completed\": 5, "
        "\"requests_rejected\": 0, \"requests_preempted\": 2, "
        "\"slo_ttft\": 0, \"slo_tpot\": 0, "
        "\"ttft_attainment\": null, \"tpot_attainment\": null}"
        "]}\n"
        "]\n");
}

TEST(Registries, LookupsResolveAndRejectUnknowns)
{
    auto single = clusterByName("single24");
    ASSERT_TRUE(single.has_value());
    EXPECT_EQ(single->numNodes(), 24);
    auto hetero = clusterByName("hetero42");
    ASSERT_TRUE(hetero.has_value());
    EXPECT_EQ(hetero->numNodes(), 42);
    EXPECT_FALSE(clusterByName("bogus").has_value());

    auto seventy = modelByName("llama70b");
    ASSERT_TRUE(seventy.has_value());
    EXPECT_FALSE(modelByName("bogus").has_value());

    auto sp_plus = plannerByName("sp+", 1.0);
    ASSERT_NE(sp_plus, nullptr);
    EXPECT_EQ(plannerByName("bogus", 1.0), nullptr);

    EXPECT_EQ(schedulerKindByName("fixed-rr"),
              SchedulerKind::FixedRoundRobin);
    EXPECT_FALSE(schedulerKindByName("bogus").has_value());
}

TEST(Registries, ThreadCountCapsTheHelixSearch)
{
    // `helixctl plan|run --threads N` reach a helix planner's flow
    // search as its thread count; 0 means the host's cores. The search
    // never runs more workers than it has chains.
    auto hetero = clusterByName("hetero42");
    auto seventy = modelByName("llama70b");
    ASSERT_TRUE(hetero && seventy);
    const cluster::Profiler profiler(*seventy);
    const int chains = placement::FlowSearch::kChains;
    const int cores = static_cast<int>(std::thread::hardware_concurrency());
    const std::pair<int, int> caps[] = {
        {0, std::clamp(cores, 1, chains)}, {1, 1}, {64, chains}};
    for (const auto &[threads, expected] : caps) {
        auto planner = plannerByName("helix", 0.0, threads);
        ASSERT_NE(planner, nullptr);
        static_cast<void>(planner->plan(*hetero, profiler));
        const auto *helix =
            dynamic_cast<const placement::HelixPlanner *>(planner.get());
        ASSERT_NE(helix, nullptr);
        EXPECT_EQ(helix->report().threads, expected)
            << "--threads " << threads;
    }
}

} // namespace
} // namespace exp
} // namespace helix
