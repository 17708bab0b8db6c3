/**
 * @file
 * Golden outputs of the simulator. Generated clusters
 * (gen:<preset>:<n>, n in {16, 64, 256}) are planned with the Swarm
 * planner and driven through offline, bursty, churn, drift and flood
 * scenarios; two configs also declare three fair-share tenants, one
 * where a batch flood draws preemptions and one where churn restarts
 * tenant requests. Each run's exhaustive SimMetrics fingerprint and
 * its JSON/CSV emitter bytes must match
 * tests/data/sim_golden/<name>.txt byte for byte, <name> being
 * <preset>-<n>-<scenario> plus -tenants<k> when tenants are declared:
 * every double is compared via its %.17g digits, not a tolerance.
 *
 * On a mismatch the actual bytes are written next to the test binary
 * as <name>.actual.txt and the path is printed, so a
 * deliberate behaviour change is reviewed with `diff` and landed by
 * copying that file over the golden.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/generator.h"
#include "cluster/profiler.h"
#include "model/transformer.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "scheduler/scheduler.h"
#include "sim/simulator.h"
#include "sim_fingerprint.h"
#include "trace/trace.h"
#include "util/random.h"

namespace helix {
namespace sim {
namespace {

enum class Scenario
{
    Offline,
    Bursty,
    Churn,
    Drift,
    /** Poisson trace plus an early burst of tenant-0 requests. */
    Flood,
};

const char *
toString(Scenario scenario)
{
    switch (scenario) {
      case Scenario::Offline:     return "offline";
      case Scenario::Bursty:      return "bursty";
      case Scenario::Churn:       return "churn";
      case Scenario::Drift:       return "drift";
      case Scenario::Flood:       return "flood";
    }
    return "?";
}

struct GoldenConfig
{
    const char *preset;
    int numNodes;
    Scenario scenario;
    int numRequests;
    double rate; // requests/s
    /** Fair-share tenants declared (the first numTenants of
     *  kTenants); 0 = none. */
    int numTenants = 0;
};

const GoldenConfig kConfigs[] = {
    {"homogeneous", 16, Scenario::Offline, 200, 6.0},
    {"two-tier", 16, Scenario::Bursty, 200, 4.0},
    {"long-tail-heterogeneous", 16, Scenario::Churn, 200, 4.0},
    {"two-tier", 16, Scenario::Drift, 200, 4.0},
    {"geo-distributed", 64, Scenario::Offline, 240, 6.0},
    {"two-tier", 64, Scenario::Churn, 240, 6.0},
    {"long-tail-heterogeneous", 256, Scenario::Offline, 240, 8.0},
    {"geo-distributed", 256, Scenario::Bursty, 240, 8.0},
    {"homogeneous", 16, Scenario::Flood, 200, 6.0, 3},
    {"two-tier", 64, Scenario::Churn, 240, 6.0, 3},
};
constexpr uint64_t kTraceSeed = 3;

/** Tenant classes of the tenancy configs: weights 1/2/4, the
 *  heaviest one with SLOs. */
const scheduler::Tenant kTenants[] = {
    {"batch", 1.0, -1.0, 0.0, 0.0},
    {"standard", 2.0, -1.0, 0.0, 0.0},
    {"interactive", 4.0, -1.0, 2.0, 0.5},
};
/** Flood scenario: this many extra tenant-0 requests at this rate
 *  from t = 0, on top of the Poisson trace. */
constexpr int kFloodRequests = 150;
constexpr double kFloodRate = 40.0;

SimConfig
scenarioSimConfig(const GoldenConfig &config)
{
    SimConfig sim_config;
    sim_config.warmupSeconds = 5.0;
    sim_config.measureSeconds = 40.0;
    sim_config.collectLinkStats = true;
    switch (config.scenario) {
      case Scenario::Offline:
      case Scenario::Bursty:
        break;
      case Scenario::Churn:
        sim_config.churnEvents = {
            {ChurnEvent::Kind::Fail, 1, 12.0},
            {ChurnEvent::Kind::Recover, 1, 26.0},
            {ChurnEvent::Kind::Fail, config.numNodes / 2, 18.0},
        };
        break;
      case Scenario::Drift:
        sim_config.driftThreshold = 0.15;
        sim_config.nodeSlowdown.assign(
            static_cast<size_t>(config.numNodes), 1.0);
        sim_config.nodeSlowdown[0] = 2.5;
        sim_config.nodeSlowdown[config.numNodes / 2] = 1.8;
        break;
      case Scenario::Flood:
        break;
    }
    if (config.numTenants > 0) {
        sim_config.tenants.assign(kTenants,
                                  kTenants + config.numTenants);
        sim_config.starvationTolerance = 0.5;
        sim_config.preemptionTimeoutS = 2.0;
    }
    return sim_config;
}

std::vector<trace::Request>
makeTrace(const GoldenConfig &config)
{
    trace::LengthModel lengths;
    lengths.targetMeanPrompt = 120;
    lengths.maxPromptLen = 512;
    lengths.targetMeanOutput = 40;
    lengths.maxOutputLen = 128;
    trace::TraceGenerator gen(kTraceSeed, lengths);
    if (config.scenario == Scenario::Bursty) {
        trace::BurstyArrivals arrivals(config.rate / 2.0, 5.0, 6.0,
                                       20.0);
        return gen.generateCount(config.numRequests, arrivals);
    }
    trace::PoissonArrivals arrivals(config.rate);
    std::vector<trace::Request> requests =
        gen.generateCount(config.numRequests, arrivals);
    if (config.numTenants > 0) {
        // Weight-proportional labels from a dedicated stream.
        double total = 0.0;
        for (int t = 0; t < config.numTenants; ++t)
            total += kTenants[t].weight;
        Rng tenant_rng = Rng(kTraceSeed).fork(0x74656e616e74ULL);
        for (trace::Request &req : requests) {
            double u = tenant_rng.nextDouble() * total;
            int t = 0;
            while (t + 1 < config.numTenants && u >= kTenants[t].weight) {
                u -= kTenants[t].weight;
                ++t;
            }
            req.tenant = t;
        }
    }
    if (config.scenario == Scenario::Flood) {
        trace::TraceGenerator flood_gen(kTraceSeed + 1, lengths);
        trace::PoissonArrivals flood_arrivals(kFloodRate);
        for (trace::Request req :
             flood_gen.generateCount(kFloodRequests, flood_arrivals)) {
            req.tenant = 0;
            requests.push_back(req);
        }
        std::stable_sort(requests.begin(), requests.end(),
                         [](const trace::Request &a,
                            const trace::Request &b) {
                             return a.arrivalS < b.arrivalS;
                         });
        for (size_t i = 0; i < requests.size(); ++i)
            requests[i].id = static_cast<int>(i);
    }
    return requests;
}

std::string
goldenName(const GoldenConfig &config)
{
    std::string name = std::string(config.preset) + "-" +
                       std::to_string(config.numNodes) + "-" +
                       toString(config.scenario);
    if (config.numTenants > 0)
        name += "-tenants" + std::to_string(config.numTenants);
    return name;
}

/** One full simulation; returns its fingerprint and emitter bytes. */
std::string
runConfig(const GoldenConfig &config)
{
    cluster::gen::GeneratorConfig gen_config;
    gen_config.preset = config.preset;
    gen_config.numNodes = config.numNodes;
    gen_config.seed = 42;
    auto clus = cluster::gen::generate(gen_config);
    if (!clus.has_value()) {
        ADD_FAILURE() << "generator rejected preset " << config.preset;
        return {};
    }
    auto model = model::catalog::llama30b();
    cluster::Profiler profiler(model);
    placement::SwarmPlanner planner;
    auto placement = planner.plan(*clus, profiler);
    placement::PlacementGraph graph(*clus, profiler, placement);
    scheduler::Topology topo(*clus, profiler, placement, graph);
    scheduler::HelixScheduler sched(topo);
    ClusterSimulator simulator(*clus, profiler, placement, sched,
                               scenarioSimConfig(config));
    SimMetrics metrics = simulator.run(makeTrace(config));
    // A golden of an idle run would pin nothing; the tenancy configs
    // exist to pin preemption (flood) and restarts (churn).
    EXPECT_GT(metrics.requestsCompleted, 0) << goldenName(config);
    if (config.numTenants > 0 && config.scenario == Scenario::Flood) {
        EXPECT_GT(metrics.requestsPreempted, 0) << goldenName(config);
    }
    if (config.numTenants > 0 && config.scenario == Scenario::Churn) {
        EXPECT_GT(metrics.requestsRestarted, 0) << goldenName(config);
    }
    return fingerprint(metrics) + "=== emitters ===\n" +
           emitterBytes(metrics, goldenName(config));
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

TEST(SimGolden, SerialOutputsMatchGoldens)
{
    for (const GoldenConfig &config : kConfigs) {
        const std::string name = goldenName(config);
        const std::string golden_path =
            std::string(HELIX_TEST_DATA_DIR) + "/sim_golden/" + name +
            ".txt";
        const std::string actual = runConfig(config);
        if (actual == readFile(golden_path))
            continue;
        const std::string actual_path =
            std::string(HELIX_TEST_BINARY_DIR) + "/" + name +
            ".actual.txt";
        std::ofstream(actual_path, std::ios::binary) << actual;
        ADD_FAILURE() << name << ": output differs from " << golden_path
                      << "\nactual bytes written to " << actual_path
                      << "\nreplay: preset=" << config.preset
                      << " n=" << config.numNodes
                      << " scenario=" << toString(config.scenario)
                      << " tenants=" << config.numTenants
                      << " cluster_seed=42 trace_seed=" << kTraceSeed;
    }
}

} // namespace
} // namespace sim
} // namespace helix
