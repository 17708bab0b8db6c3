/**
 * @file
 * Golden outputs of the simulator. Generated clusters
 * (gen:<preset>:<n>, n in {16, 64, 256}) are planned with the Swarm
 * planner and driven through offline, bursty, churn, and drift
 * scenarios. Each run's exhaustive SimMetrics fingerprint and its
 * JSON/CSV emitter bytes must match
 * tests/data/sim_golden/<preset>-<n>-<scenario>.txt byte for byte:
 * every double is compared via its %.17g digits, not a tolerance.
 *
 * On a mismatch the actual bytes are written next to the test binary
 * as <preset>-<n>-<scenario>.actual.txt and the path is printed, so a
 * deliberate behaviour change is reviewed with `diff` and landed by
 * copying that file over the golden.
 */

#include <gtest/gtest.h>

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

namespace helix {
namespace sim {
namespace {

enum class Scenario
{
    Offline,
    Bursty,
    Churn,
    Drift,
};

const char *
toString(Scenario scenario)
{
    switch (scenario) {
      case Scenario::Offline:     return "offline";
      case Scenario::Bursty:      return "bursty";
      case Scenario::Churn:       return "churn";
      case Scenario::Drift:       return "drift";
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
};
constexpr uint64_t kTraceSeed = 3;

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
    return gen.generateCount(config.numRequests, arrivals);
}

std::string
goldenName(const GoldenConfig &config)
{
    return std::string(config.preset) + "-" +
           std::to_string(config.numNodes) + "-" +
           toString(config.scenario);
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
    // A golden of an idle run would pin nothing.
    EXPECT_GT(metrics.requestsCompleted, 0) << goldenName(config);
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
                      << " cluster_seed=42 trace_seed=" << kTraceSeed;
    }
}

} // namespace
} // namespace sim
} // namespace helix
