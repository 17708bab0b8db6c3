/**
 * @file
 * Tests for the `experiment v1` spec format (src/io/spec.h) and its
 * resolution/execution semantics (src/exp/spec.h): serialization
 * round trips, golden files under tests/data/, exact line/message
 * assertions on malformed input, registry enumeration invariants,
 * byte-identity between the spec engine and a direct
 * experiment-runner replication of a figure comparison, and
 * goldens of the engine's absolute output.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/profiler.h"
#include "core/params.h"
#include "exp/experiment.h"
#include "exp/spec.h"
#include "io/serialization.h"
#include "io/spec.h"
#include "placement/planners.h"
#include "placement/portfolio.h"
#include "sim_fingerprint.h"
#include "util/compare.h"

namespace helix {
namespace {

std::string
dataPath(const std::string &name)
{
    return std::string(HELIX_TEST_DATA_DIR) + "/" + name;
}

std::string
examplePath(const std::string &name)
{
    return std::string(HELIX_EXAMPLES_DIR) + "/" + name;
}

/** Parse a spec that must be grammatical; a failure shows the error. */
std::optional<io::ExperimentSpec>
parseSpec(const std::string &text)
{
    io::ParseError error;
    auto spec = io::experimentFromString(text, error);
    EXPECT_TRUE(spec.has_value()) << error.str() << "\n" << text;
    return spec;
}

/** Parse failure helper: assert exact {line, message}. */
void
expectSpecError(const std::string &text, int line,
                const std::string &message)
{
    io::ParseError error;
    auto spec = io::experimentFromString(text, error);
    EXPECT_FALSE(spec.has_value()) << text;
    EXPECT_EQ(error.line, line) << text;
    EXPECT_EQ(error.message, message) << text;
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
}

// --- Parsing: golden files ------------------------------------------

TEST(SpecGolden, Fig6SmokeParsesToTheBenchStructure)
{
    auto text = io::readFile(dataPath("fig6_smoke.exp"));
    ASSERT_TRUE(text.has_value());
    io::ParseError error;
    auto spec = io::experimentFromString(*text, error);
    ASSERT_TRUE(spec.has_value()) << error.str();

    EXPECT_EQ(spec->name, "fig6-smoke");
    EXPECT_EQ(spec->output, "csv");
    EXPECT_EQ(spec->threads, 0);
    EXPECT_EQ(spec->seed, 42u);
    EXPECT_DOUBLE_EQ(spec->warmupS, 1.0);
    EXPECT_DOUBLE_EQ(spec->measureS, 3.0);
    EXPECT_DOUBLE_EQ(spec->plannerBudgetS, 0.05);
    ASSERT_EQ(spec->clusters.size(), 1u);
    EXPECT_EQ(spec->clusters[0].value, "single24");
    ASSERT_EQ(spec->models.size(), 1u);
    EXPECT_EQ(spec->models[0].value, "llama30b");
    ASSERT_EQ(spec->systems.size(), 2u);
    EXPECT_EQ(spec->systems[0].label, "swarm");
    EXPECT_EQ(spec->systems[0].planner, "swarm");
    EXPECT_EQ(spec->systems[0].scheduler, "swarm");
    EXPECT_EQ(spec->systems[1].label, "sp");
    EXPECT_EQ(spec->systems[1].planner, "sp");
    EXPECT_EQ(spec->systems[1].scheduler, "fixed-rr");
    ASSERT_EQ(spec->scenarios.size(), 2u);
    EXPECT_EQ(spec->scenarios[0].kind, "offline");
    EXPECT_TRUE(spec->scenarios[0].options.empty());
    EXPECT_EQ(spec->scenarios[1].kind, "online-peak");
    EXPECT_DOUBLE_EQ(spec->scenarios[1].get("fraction"), 0.75);
    EXPECT_DOUBLE_EQ(spec->scenarios[1].get("seed"), 43.0);

    EXPECT_TRUE(exp::validateSpec(*spec, &error)) << error.str();
}

TEST(SpecGolden, SweepAxesParsesToCartesianMode)
{
    auto text = io::readFile(dataPath("sweep_axes.exp"));
    ASSERT_TRUE(text.has_value());
    io::ParseError error;
    auto spec = io::experimentFromString(*text, error);
    ASSERT_TRUE(spec.has_value()) << error.str();

    EXPECT_EQ(spec->name, "axes-golden");
    EXPECT_EQ(spec->output, "json");
    EXPECT_EQ(spec->threads, 2);
    EXPECT_EQ(spec->seed, 7u);
    EXPECT_TRUE(spec->systems.empty());
    ASSERT_EQ(spec->planners.size(), 2u);
    ASSERT_EQ(spec->schedulers.size(), 2u);
    ASSERT_EQ(spec->scenarios.size(), 4u);
    EXPECT_DOUBLE_EQ(spec->scenarios[0].get("utilization"), 2.5);
    EXPECT_DOUBLE_EQ(spec->scenarios[2].get("multiplier"), 4.0);
    ASSERT_EQ(spec->scenarios[3].events.size(), 1u);
    EXPECT_EQ(spec->scenarios[3].events[0].node, 1);
    EXPECT_DOUBLE_EQ(spec->scenarios[3].events[0].atFraction, 0.5);
    EXPECT_DOUBLE_EQ(spec->scenarios[3].get("online"), 0.0);

    EXPECT_TRUE(exp::validateSpec(*spec, &error)) << error.str();
}

TEST(SpecGolden, ShippedExamplesParseAndValidate)
{
    std::vector<std::string> names;
    for (const auto &entry :
         std::filesystem::directory_iterator(HELIX_EXAMPLES_DIR)) {
        if (entry.path().extension() == ".exp")
            names.push_back(entry.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    ASSERT_FALSE(names.empty());
    for (const std::string &name : names) {
        auto text = io::readFile(examplePath(name));
        ASSERT_TRUE(text.has_value()) << name;
        io::ParseError error;
        auto spec = io::experimentFromString(*text, error);
        ASSERT_TRUE(spec.has_value()) << name << ": " << error.str();
        EXPECT_TRUE(exp::validateSpec(*spec, &error))
            << name << ": " << error.str();
    }
    // examples/fig6.exp is the smoke tier of the paper's Fig. 6
    // comparison: smoke windows, the paired systems, and the offline
    // plus online-peak scenario structure.
    auto spec = parseSpec(*io::readFile(examplePath("fig6.exp")));
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->name, "fig6");
    EXPECT_EQ(spec->seed, 42u);
    EXPECT_DOUBLE_EQ(spec->warmupS, 1.0);
    EXPECT_DOUBLE_EQ(spec->measureS, 3.0);
    EXPECT_DOUBLE_EQ(spec->plannerBudgetS, 0.05);
    ASSERT_EQ(spec->models.size(), 2u);
    ASSERT_EQ(spec->systems.size(), 3u);
    EXPECT_EQ(spec->systems[0].label, "helix");
    ASSERT_EQ(spec->scenarios.size(), 2u);
    EXPECT_EQ(spec->scenarios[1].kind, "online-peak");
    EXPECT_DOUBLE_EQ(spec->scenarios[1].get("fraction"), 0.75);
    EXPECT_DOUBLE_EQ(spec->scenarios[1].get("seed"), 43.0);

    // Fig. 7: geo24 serving both models.
    auto fig7 = parseSpec(*io::readFile(examplePath("fig7.exp")));
    ASSERT_TRUE(fig7.has_value());
    ASSERT_EQ(fig7->clusters.size(), 1u);
    EXPECT_EQ(fig7->clusters[0].value, "geo24");
    ASSERT_EQ(fig7->models.size(), 2u);
    ASSERT_EQ(fig7->systems.size(), 3u);
    EXPECT_EQ(fig7->systems[0].label, "helix");
    EXPECT_EQ(fig7->systems[0].planner, "helix");

    // Fig. 8: hetero42 with SP+ as the fourth system.
    auto fig8 = parseSpec(*io::readFile(examplePath("fig8.exp")));
    ASSERT_TRUE(fig8.has_value());
    ASSERT_EQ(fig8->clusters.size(), 1u);
    EXPECT_EQ(fig8->clusters[0].value, "hetero42");
    ASSERT_EQ(fig8->models.size(), 1u);
    ASSERT_EQ(fig8->systems.size(), 4u);
    EXPECT_EQ(fig8->systems[3].label, "sp+");
    EXPECT_EQ(fig8->systems[3].planner, "sp+");
}

// --- Parsing: round trip --------------------------------------------

TEST(SpecRoundTrip, SerializeParseSerializeIsByteIdentical)
{
    auto text = io::readFile(dataPath("sweep_axes.exp"));
    ASSERT_TRUE(text.has_value());
    auto spec = parseSpec(*text);
    ASSERT_TRUE(spec.has_value());
    std::string canonical = io::experimentToString(*spec);
    auto reparsed = parseSpec(canonical);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(io::experimentToString(*reparsed), canonical);
    // And the reparse carries the same content.
    EXPECT_EQ(reparsed->name, spec->name);
    EXPECT_EQ(reparsed->threads, spec->threads);
    EXPECT_EQ(reparsed->seed, spec->seed);
    ASSERT_EQ(reparsed->scenarios.size(), spec->scenarios.size());
    for (size_t i = 0; i < spec->scenarios.size(); ++i) {
        EXPECT_EQ(reparsed->scenarios[i].kind,
                  spec->scenarios[i].kind);
        EXPECT_EQ(reparsed->scenarios[i].options,
                  spec->scenarios[i].options);
    }
}

// --- Parsing: malformed input, exact line + message -----------------

TEST(SpecErrors, HeaderProblems)
{
    expectSpecError("", 0,
                    "empty input; expected 'experiment v1' header");
    expectSpecError("cluster v1\n", 1,
                    "expected 'experiment v1' header, got 'cluster'");
    expectSpecError("experiment v2\n", 1,
                    "experiment version 'v2' not supported "
                    "(expected v1)");
}

TEST(SpecErrors, DirectiveProblems)
{
    expectSpecError("experiment v1\nfrobnicate 3\n", 2,
                    "unknown directive 'frobnicate'");
    expectSpecError("experiment v1\nseed 42\n# c\nseed 43\n", 4,
                    "duplicate 'seed' directive (first on line 2)");
    expectSpecError("experiment v1\nwarmup -3\n", 2,
                    "'warmup' must be a non-negative number of "
                    "seconds, got '-3'");
    expectSpecError("experiment v1\noutput yaml\n", 2,
                    "output must be 'csv' or 'json', got 'yaml'");
    expectSpecError("experiment v1\nseed banana\n", 2,
                    "seed must be an unsigned integer, got 'banana'");
    expectSpecError("experiment v1\ncluster\n", 2,
                    "'cluster' needs 1 argument(s): cluster "
                    "<registry-name>");
}

TEST(SpecErrors, ModeMixing)
{
    expectSpecError("experiment v1\n"
                    "cluster planner10\n"
                    "model llama30b\n"
                    "system a swarm helix\n"
                    "planner swarm\n",
                    5,
                    "cannot mix 'planner' axes with 'system' lines "
                    "(first system on line 4)");
    expectSpecError("experiment v1\n"
                    "cluster planner10\n"
                    "model llama30b\n"
                    "scheduler helix\n"
                    "system a swarm helix\n",
                    5,
                    "cannot mix 'system' lines with planner/scheduler "
                    "axes (first axis on line 4)");
    expectSpecError("experiment v1\n"
                    "cluster planner10\n"
                    "model llama30b\n"
                    "planner swarm\n"
                    "scenario offline\n",
                    4, "cartesian mode needs at least one 'scheduler'");
}

TEST(SpecErrors, ScenarioProblems)
{
    const std::string preamble = "experiment v1\n"
                                 "cluster planner10\n"
                                 "model llama30b\n"
                                 "system a swarm helix\n";
    expectSpecError(preamble + "scenario rushhour\n", 5,
                    "unknown scenario kind 'rushhour' (known: "
                    "offline, online, bursty, churn, online-peak)");
    expectSpecError(preamble + "scenario offline node=3\n", 5,
                    "scenario 'offline' does not take option 'node' "
                    "(known: seed, warmup, measure, utilization)");
    expectSpecError(preamble + "scenario offline seed=abc\n", 5,
                    "scenario option 'seed' has non-numeric value "
                    "'abc'");
    expectSpecError(preamble + "scenario offline seed=1 seed=2\n", 5,
                    "duplicate scenario option 'seed'");
    expectSpecError(preamble + "scenario churn online=0\n", 5,
                    "churn scenario requires fail=<node>@<fraction> "
                    "events");
    expectSpecError(preamble + "scenario online-peak\n"
                               "scenario offline\n",
                    5,
                    "online-peak needs an earlier offline scenario "
                    "to derive its arrival rate from");
}

TEST(SpecErrors, ChurnEventGrammar)
{
    const std::string preamble = "experiment v1\n"
                                 "cluster planner10\n"
                                 "model llama30b\n"
                                 "system a swarm helix\n";
    // Event values must be <node>@<fraction>.
    expectSpecError(preamble + "scenario churn fail=0.3\n", 5,
                    "scenario option 'fail' must be "
                    "<node>@<fraction>, got '0.3'");
    expectSpecError(preamble + "scenario churn fail=a@0.3\n", 5,
                    "scenario option 'fail' must be "
                    "<node>@<fraction>, got 'a@0.3'");
    expectSpecError(preamble + "scenario churn recover=1@\n", 5,
                    "scenario option 'recover' must be "
                    "<node>@<fraction>, got '1@'");
    expectSpecError(preamble + "scenario churn fail=1.9@0.3\n", 5,
                    "scenario option 'fail' must be "
                    "<node>@<fraction>, got '1.9@0.3'");
    // Repeated fail=/recover= keys are legal (an event schedule).
    auto spec = parseSpec(
        preamble +
        "scenario churn fail=0@0.2 recover=0@0.5 fail=1@0.7\n");
    ASSERT_TRUE(spec.has_value());
    ASSERT_EQ(spec->scenarios.size(), 1u);
    const auto &events = spec->scenarios[0].events;
    ASSERT_EQ(events.size(), 3u);
    EXPECT_TRUE(events[0].fail);
    EXPECT_EQ(events[0].node, 0);
    EXPECT_DOUBLE_EQ(events[0].atFraction, 0.2);
    EXPECT_FALSE(events[1].fail);
    EXPECT_EQ(events[1].node, 0);
    EXPECT_DOUBLE_EQ(events[1].atFraction, 0.5);
    EXPECT_TRUE(events[2].fail);
    EXPECT_EQ(events[2].node, 1);
    EXPECT_DOUBLE_EQ(events[2].atFraction, 0.7);
    io::ParseError error;
    EXPECT_TRUE(exp::validateSpec(*spec, &error)) << error.str();
    // Canonical serialization keeps the schedule and round-trips.
    std::string canonical = io::experimentToString(*spec);
    EXPECT_NE(canonical.find(
                  "scenario churn fail=0@0.20000000000000001 "
                  "recover=0@0.5 fail=1@0.69999999999999996"),
              std::string::npos)
        << canonical;
    auto reparsed = parseSpec(canonical);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(io::experimentToString(*reparsed), canonical);
    EXPECT_EQ(reparsed->scenarios[0].events, events);
}

TEST(SpecErrors, ScenarioOptionRangesAreEnforced)
{
    // Every scenario option is range-checked against its registry
    // declaration at parse time, on the scenario's own line. These
    // specs used to validate and then crash or misbehave at run time.
    const std::string preamble = "experiment v1\n"
                                 "cluster planner10\n"
                                 "model llama30b\n"
                                 "system a swarm helix\n";
    expectSpecError(preamble + "scenario bursty burst=0 gap=0\n", 5,
                    "scenario option 'burst' must be a positive number "
                    "of seconds, got '0'");
    expectSpecError(preamble + "scenario bursty gap=-5\n", 5,
                    "scenario option 'gap' must be a positive number "
                    "of seconds, got '-5'");
    expectSpecError(preamble + "scenario bursty multiplier=0.25\n", 5,
                    "scenario option 'multiplier' must be at least 1, "
                    "got '0.25'");
    expectSpecError(preamble + "scenario offline utilization=-2\n", 5,
                    "scenario option 'utilization' must be positive, "
                    "got '-2'");
    expectSpecError(preamble + "scenario churn drift=1.5 fail=0@0.3\n",
                    5,
                    "scenario option 'drift' must be a fraction in "
                    "[0, 1), got '1.5'");
    expectSpecError(preamble + "scenario churn online=0.5 fail=0@0.3\n",
                    5, "scenario option 'online' must be 0 or 1, got "
                       "'0.5'");
    expectSpecError(preamble + "scenario offline warmup=-1\n", 5,
                    "'warmup' must be a non-negative number of "
                    "seconds, got '-1'");
    expectSpecError(preamble + "scenario offline measure=0\n", 5,
                    "'measure' must be a positive number of seconds, "
                    "got '0'");
    expectSpecError(preamble + "scenario offline\n"
                               "scenario online-peak fraction=0\n",
                    6,
                    "scenario option 'fraction' must be positive, "
                    "got '0'");
}

TEST(SpecErrors, RemovedChurnKeysAreUnknown)
{
    // The single-failure `node=`/`at=` pair and the `repair=` mode
    // switch are gone: fail=<node>@<fraction> covers the former, and
    // churn always re-solves by incremental repair.
    const std::string preamble = "experiment v1\n"
                                 "cluster planner10\n"
                                 "model llama30b\n"
                                 "system a swarm helix\n";
    const std::string known =
        "(known: seed, warmup, measure, utilization, online, fail, "
        "recover, drift)";
    expectSpecError(preamble + "scenario churn node=0 at=0.3\n", 5,
                    "scenario 'churn' does not take option 'node' " +
                        known);
    expectSpecError(preamble + "scenario churn fail=0@0.3 at=0.3\n", 5,
                    "scenario 'churn' does not take option 'at' " +
                        known);
    expectSpecError(preamble + "scenario churn repair=1 fail=0@0.3\n",
                    5,
                    "scenario 'churn' does not take option 'repair' " +
                        known);
}

TEST(SpecValidate, ChurnEventScheduleConsistency)
{
    const std::string preamble = "experiment v1\n"
                                 "cluster planner10\n"
                                 "model llama30b\n"
                                 "system a swarm helix\n";
    io::ParseError error;
    auto check = [&](const std::string &scenario_line,
                     const std::string &message) {
        auto spec = parseSpec(preamble + scenario_line + "\n");
        ASSERT_TRUE(spec.has_value()) << scenario_line;
        EXPECT_FALSE(exp::validateSpec(*spec, &error))
            << scenario_line;
        EXPECT_EQ(error.line, 5) << scenario_line;
        EXPECT_EQ(error.message, message) << scenario_line;
    };
    check("scenario churn fail=10@0.3",
          "churn event node index 10 is out of range for the "
          "smallest declared cluster (10 nodes)");
    check("scenario churn fail=0@1.5",
          "churn event fail=0@1.500000 must occur at a fraction of "
          "the run in [0, 1]");
    check("scenario churn fail=0@0.5 recover=0@0.2",
          "churn event recover=0@0.200000 is out of order: events "
          "must be declared in non-decreasing time order");
    check("scenario churn fail=0@0.2 fail=0@0.5",
          "churn event fail=0@0.500000 fails a node that is already "
          "failed");
    check("scenario churn recover=0@0.2",
          "churn event recover=0@0.200000 recovers a node with no "
          "earlier fail event");
    // Fail, recover, then fail again on the same node is a legal
    // flapping-node schedule.
    auto flap = parseSpec(
        preamble +
        "scenario churn fail=2@0.2 recover=2@0.4 fail=2@0.8\n");
    ASSERT_TRUE(flap.has_value());
    EXPECT_TRUE(exp::validateSpec(*flap, &error)) << error.str();
}

TEST(SpecErrors, NonFiniteAndPrecisionLosingValuesRejected)
{
    // inf/nan would hang a run (infinite warmup) or poison configs;
    // parseDouble rejects them everywhere.
    expectSpecError("experiment v1\nwarmup inf\n", 2,
                    "'warmup' must be a non-negative number of "
                    "seconds, got 'inf'");
    expectSpecError("experiment v1\nmeasure nan\n", 2,
                    "'measure' must be a positive number of seconds, "
                    "got 'nan'");
    const std::string preamble = "experiment v1\n"
                                 "cluster planner10\n"
                                 "model llama30b\n"
                                 "system a swarm helix\n"
                                 "scenario offline\n";
    expectSpecError(preamble + "scenario online-peak fraction=inf\n",
                    6,
                    "scenario option 'fraction' has non-numeric "
                    "value 'inf'");
    // Scenario seeds ride the double-valued option table; values
    // beyond 2^53 would silently shift the RNG stream.
    expectSpecError(preamble +
                        "scenario offline seed=12345678901234567890\n",
                    6,
                    "scenario option 'seed' exceeds 2^53 and would "
                    "lose precision; use the top-level 'seed' "
                    "directive");
}

TEST(SpecErrors, MissingSections)
{
    expectSpecError("experiment v1\n", 0,
                    "spec declares no 'cluster' lines");
    expectSpecError("experiment v1\ncluster planner10\n", 0,
                    "spec declares no 'model' lines");
    expectSpecError("experiment v1\ncluster planner10\n"
                    "model llama30b\n",
                    0,
                    "spec declares no 'system' lines and no "
                    "planner/scheduler axes");
    expectSpecError("experiment v1\ncluster planner10\n"
                    "model llama30b\nsystem a swarm helix\n",
                    0, "spec declares no 'scenario' lines");
}

// --- cluster v1: hostile node and link records ----------------------

/** Cluster parse failure helper: assert exact {line, message}. */
void
expectClusterError(const std::string &links, int line,
                   const std::string &message)
{
    const std::string text = "cluster v1\n"
                             "node a A100 312 80 2039 400 1 0\n"
                             "node b T4 65 16 300 70 1 1\n" +
                             links;
    io::ParseError error;
    EXPECT_FALSE(io::clusterFromString(text, error).has_value()) << text;
    EXPECT_EQ(error.line, line) << text;
    EXPECT_EQ(error.message, message) << text;
}

TEST(ClusterErrors, NegativeBandwidthOrLatency)
{
    // A negative bandwidth used to parse and then abort the process
    // on the flow graph's capacity >= 0 check.
    expectClusterError("link -1 0 1e9 0.001\nlink 0 1 -1e9 0.001\n", 5,
                       "link bandwidth and latency must be "
                       "non-negative");
    expectClusterError("link 1 0 1e9 -0.5\n", 4,
                       "link bandwidth and latency must be "
                       "non-negative");
    expectClusterError("link 1 0 -0 0\nlink 0 1 0 -1e-300\n", 5,
                       "link bandwidth and latency must be "
                       "non-negative");
}

TEST(ClusterErrors, LinkBandwidthBeyondTheFlowUnits)
{
    // 2^47 b/s is 2^42 token/s at 4 bytes per token, the largest
    // capacity flow::toUnits takes. A coordinator link of 1.41e14 b/s
    // used to parse and then abort the process while the placement
    // graph was built.
    expectClusterError("link 0 1 1e9 0.001\nlink -1 0 1.41e14 0.001\n", 5,
                       "link bandwidth must be below 2^47 b/s");
    expectClusterError("link 1 -1 140737488355328 0\n", 4,
                       "link bandwidth must be below 2^47 b/s");

    // Just below the limit, the cluster parses and plans: the link from
    // the coordinator to a holder of layer 0, which the placement graph
    // carries, is 1.4e14 b/s.
    auto model_spec = exp::modelByName("llama30b");
    auto clus = exp::clusterByName("single24");
    ASSERT_TRUE(model_spec.has_value() && clus.has_value());
    const cluster::Profiler profiler(*model_spec);
    placement::SwarmPlanner swarm;
    const placement::ModelPlacement planned = swarm.plan(*clus, profiler);
    int first = 0;
    while (planned[first].count == 0 || planned[first].start != 0)
        ++first;
    const std::string fast = "link -1 " + std::to_string(first) + " ";
    std::istringstream lines(io::clusterToString(*clus));
    std::string text;
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind(fast, 0) == 0)
            line = fast + "1.4e14 0.001";
        text += line + "\n";
    }
    io::ParseError error;
    auto parsed = io::clusterFromString(text, error);
    ASSERT_TRUE(parsed.has_value()) << error.str();
    EXPECT_TRUE(sameValue(
        parsed->link(cluster::kCoordinator, first).bandwidthBps, 1.4e14));
    const placement::ModelPlacement placement = swarm.plan(*parsed, profiler);
    EXPECT_GT(placement::flowThroughputBound(*parsed, profiler, placement),
              0.0);
}

/** expectClusterError for one node record after the two valid ones:
 *  the error is on the record's line, 4. */
void
expectNodeError(const std::string &node, const std::string &message)
{
    expectClusterError(node + "\n", 4, message);
}

TEST(ClusterErrors, NodeRecordsOutsideTheCostModel)
{
    // A negative tflops or bwGBs used to parse and then abort the
    // process in flow::toUnits on a negative compute capacity.
    const std::string positive =
        "node tflops, memGiB and bwGBs must be positive";
    expectNodeError("node bad A100 -312 80 -2039 400 1 0", positive);
    expectNodeError("node bad A100 0 80 2039 400 1 0", positive);
    expectNodeError("node bad A100 312 -80 2039 400 1 0", positive);
    expectNodeError("node bad A100 312 0 2039 400 1 0", positive);
    expectNodeError("node bad A100 312 80 -0 400 1 0", positive);
    expectNodeError("node bad A100 312 80 -1e-300 400 1 0", positive);

    const std::string gpus = "node gpus must be at least 1";
    expectNodeError("node bad A100 312 80 2039 400 0 0", gpus);
    expectNodeError("node bad A100 312 80 2039 400 -2 0", gpus);

    // memGiB x gpus x 2^30 used to overflow the int64 byte counts of
    // GpuSpec::memoryBytes and NodeSpec::totalMemoryBytes.
    const std::string memory =
        "node memory (memGiB x gpus) must be below 2^63 bytes";
    expectNodeError("node bad A100 312 1e12 2039 400 1 0", memory);
    expectNodeError("node bad A100 312 8589934592 2039 400 1 0", memory);
    expectNodeError("node bad A100 312 80 2039 400 107374183 0", memory);
    expectNodeError("node bad A100 312 80 2039 400 2147483647 0", memory);
}

TEST(ClusterErrors, NodeRecordsAtTheLimitsParseAndPlan)
{
    // Four A100 nodes, then nodes just inside each rule: 2^63 - 2^30
    // bytes on one GPU, 2^63 - 2^35 bytes over 107374182 GPUs, and a
    // tflops and bwGBs of 1e-300.
    std::string text = "cluster v1\n";
    for (int i = 0; i < 4; ++i)
        text += "node a" + std::to_string(i) + " A100 312 80 2039 400 1 0\n";
    text += "node huge A100 312 8589934591 2039 400 1 0\n"
            "node many A100 312 80 2039 400 107374182 0\n"
            "node slow A100 1e-300 80 1e-300 400 1 0\n";
    const int n = 7;
    for (int from = cluster::kCoordinator; from < n; ++from) {
        for (int to = cluster::kCoordinator; to < n; ++to) {
            if (from != to)
                text += "link " + std::to_string(from) + " " +
                        std::to_string(to) + " 1.25e9 0.0005\n";
        }
    }
    io::ParseError error;
    auto parsed = io::clusterFromString(text, error);
    ASSERT_TRUE(parsed.has_value()) << error.str();
    EXPECT_EQ(parsed->node(4).totalMemoryBytes(),
              INT64_C(0x7fffffffc0000000));
    EXPECT_EQ(parsed->node(5).totalMemoryBytes(),
              INT64_C(0x7ffffff800000000));
    auto model_spec = exp::modelByName("llama70b");
    ASSERT_TRUE(model_spec.has_value());
    const cluster::Profiler profiler(*model_spec);
    const placement::ModelPlacement placement =
        placement::SwarmPlanner().plan(*parsed, profiler);
    EXPECT_GT(placement::flowThroughputBound(*parsed, profiler, placement),
              0.0);
}

TEST(ClusterErrors, DuplicateLinkRecord)
{
    // "Last wins" used to hide a typo'd pair; the repeat on the lowest
    // line is reported, with the pair's first record.
    expectClusterError("link 0 1 1e9 0.001\n"
                       "link 1 0 1e9 0.001\n"
                       "# comment\n"
                       "link 0 1 2e9 0.001\n"
                       "link 1 0 1e9 0.001\n"
                       "link 0 1 3e9 0.001\n",
                       7, "duplicate link 0 -> 1 (first on line 4)");
    expectClusterError("link -1 1 1e9 0.001\n"
                       "link 1 -1 1e9 0.001\n"
                       "link 1 -1 1e9 0.001\n"
                       "link -1 1 1e9 0.001\n",
                       6, "duplicate link 1 -> -1 (first on line 5)");
    // Endpoint range is checked before repeats.
    expectClusterError("link 0 1 1e9 0.001\n"
                       "link 0 1 1e9 0.001\n"
                       "link 0 2 1e9 0.001\n",
                       6, "link endpoints 0 -> 2 out of range for 2 "
                          "nodes");
}

TEST(ClusterRoundTrip, SerializedBytesAreStable)
{
    for (const char *name :
         {"geo24", "hetero42", "gen:geo-distributed:50"}) {
        auto clus = exp::clusterByName(name);
        ASSERT_TRUE(clus.has_value()) << name;
        const std::string text = io::clusterToString(*clus);
        io::ParseError error;
        auto parsed = io::clusterFromString(text, error);
        ASSERT_TRUE(parsed.has_value()) << name << ": " << error.str();
        EXPECT_EQ(io::clusterToString(*parsed), text) << name;
    }
}

// --- Registry resolution (exp::validateSpec) ------------------------

TEST(SpecValidate, UnknownNamesReportTheirSpecLine)
{
    const std::string text = "experiment v1\n"
                             "cluster nimbus9000\n"
                             "model llama30b\n"
                             "system a swarm helix\n"
                             "scenario offline\n";
    auto spec = parseSpec(text);
    ASSERT_TRUE(spec.has_value());
    io::ParseError error;
    EXPECT_FALSE(exp::validateSpec(*spec, &error));
    EXPECT_EQ(error.line, 2);
    EXPECT_EQ(error.message,
              "unknown cluster 'nimbus9000' (known: single24, geo24, "
              "hetero42, planner10)");

    auto bad_model = parseSpec(
        "experiment v1\ncluster planner10\nmodel llama13b\n"
        "system a swarm helix\nscenario offline\n");
    ASSERT_TRUE(bad_model.has_value());
    EXPECT_FALSE(exp::validateSpec(*bad_model, &error));
    EXPECT_EQ(error.line, 3);
    EXPECT_EQ(error.message,
              "unknown model 'llama13b' (known: llama30b, llama70b, "
              "gpt3-175b, grok1-314b, llama3-405b)");

    auto bad_system = parseSpec(
        "experiment v1\ncluster planner10\nmodel llama30b\n"
        "system a gurobi helix\nscenario offline\n");
    ASSERT_TRUE(bad_system.has_value());
    EXPECT_FALSE(exp::validateSpec(*bad_system, &error));
    EXPECT_EQ(error.line, 4);
    EXPECT_EQ(error.message,
              "system 'a' names unknown planner 'gurobi' (known: "
              "helix, helix-partitioned, swarm, petals, sp, sp+, uniform, "
              "portfolio)");

    // The planner registry has no bandwidth-pruned helix.
    EXPECT_EQ(exp::plannerByName("helix-pruned", 0.01), nullptr);
    auto pruned = parseSpec(
        "experiment v1\ncluster planner10\nmodel llama30b\n"
        "system helix helix-pruned helix\nscenario offline\n");
    ASSERT_TRUE(pruned.has_value());
    EXPECT_FALSE(exp::validateSpec(*pruned, &error));
    EXPECT_EQ(error.line, 4);
    EXPECT_EQ(error.message,
              "system 'helix' names unknown planner 'helix-pruned' "
              "(known: helix, helix-partitioned, swarm, petals, sp, sp+, "
              "uniform, portfolio)");
}

TEST(SpecValidate, EnumeratedRegistryNamesAllResolve)
{
    for (const std::string &name : exp::clusterNames())
        EXPECT_TRUE(exp::clusterByName(name).has_value()) << name;
    for (const std::string &name : exp::modelNames())
        EXPECT_TRUE(exp::modelByName(name).has_value()) << name;
    for (const std::string &name : exp::plannerNames())
        EXPECT_NE(exp::plannerByName(name, 0.01), nullptr) << name;
    for (const std::string &name : exp::schedulerNames())
        EXPECT_TRUE(exp::schedulerKindByName(name).has_value())
            << name;
}

// --- Scenario materialization ---------------------------------------

TEST(SpecScenarios, EachKindPicksItsArrivalProcessAndRate)
{
    io::ExperimentSpec spec;
    spec.seed = 11;
    spec.warmupS = 2.0;
    spec.measureS = 8.0;

    io::ScenarioSpec offline;
    offline.kind = "offline";
    RunConfig run = exp::scenarioRunConfig(spec, offline, 0.0);
    EXPECT_EQ(run.seed, 11u);
    EXPECT_DOUBLE_EQ(run.simulation.warmupSeconds, 2.0);
    EXPECT_DOUBLE_EQ(run.simulation.measureSeconds, 8.0);
    EXPECT_EQ(run.arrivals, ArrivalKind::Poisson);
    EXPECT_DOUBLE_EQ(run.utilization, 3.0);
    EXPECT_DOUBLE_EQ(run.requestRate, 0.0);

    io::ScenarioSpec online;
    online.kind = "online";
    run = exp::scenarioRunConfig(spec, online, 0.0);
    EXPECT_EQ(run.arrivals, ArrivalKind::Diurnal);
    EXPECT_DOUBLE_EQ(run.utilization, 0.75);
    // An explicit utilization= replaces the kind's own.
    online.options = {{"utilization", 1.5}};
    run = exp::scenarioRunConfig(spec, online, 0.0);
    EXPECT_EQ(run.arrivals, ArrivalKind::Diurnal);
    EXPECT_DOUBLE_EQ(run.utilization, 1.5);

    // Options a line leaves out take their registry defaults.
    io::ScenarioSpec plain_bursty;
    plain_bursty.kind = "bursty";
    run = exp::scenarioRunConfig(spec, plain_bursty, 0.0);
    EXPECT_DOUBLE_EQ(run.utilization, 0.75);
    EXPECT_DOUBLE_EQ(run.burstMultiplier, 5.0);
    EXPECT_DOUBLE_EQ(run.burstMeanS, 30.0);
    EXPECT_DOUBLE_EQ(run.burstGapS, 270.0);

    io::ScenarioSpec bursty;
    bursty.kind = "bursty";
    bursty.options = {{"multiplier", 7.0}, {"burst", 12.0},
                      {"gap", 60.0}, {"seed", 5.0},
                      {"warmup", 1.0}};
    run = exp::scenarioRunConfig(spec, bursty, 0.0);
    EXPECT_EQ(run.arrivals, ArrivalKind::Bursty);
    EXPECT_DOUBLE_EQ(run.burstMultiplier, 7.0);
    EXPECT_DOUBLE_EQ(run.burstMeanS, 12.0);
    EXPECT_DOUBLE_EQ(run.burstGapS, 60.0);
    EXPECT_EQ(run.seed, 5u);
    EXPECT_DOUBLE_EQ(run.simulation.warmupSeconds, 1.0);
    EXPECT_DOUBLE_EQ(run.simulation.measureSeconds, 8.0);

    // An event schedule materializes at fractions of the horizon.
    io::ScenarioSpec schedule;
    schedule.kind = "churn";
    schedule.options = {{"online", 0.0}};
    schedule.events = {{true, 1, 0.3, 0}, {false, 1, 0.6, 0}};
    run = exp::scenarioRunConfig(spec, schedule, 0.0);
    EXPECT_EQ(run.arrivals, ArrivalKind::Poisson);
    EXPECT_DOUBLE_EQ(run.utilization, 3.0);
    const auto &events = run.simulation.churnEvents;
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, sim::ChurnEvent::Kind::Fail);
    EXPECT_EQ(events[0].node, 1);
    EXPECT_DOUBLE_EQ(events[0].atSeconds, 0.3 * (2.0 + 8.0));
    EXPECT_EQ(events[1].kind, sim::ChurnEvent::Kind::Recover);
    EXPECT_DOUBLE_EQ(events[1].atSeconds, 0.6 * (2.0 + 8.0));
    EXPECT_DOUBLE_EQ(run.simulation.driftThreshold, 0.0);

    // Churn is online unless the line says online=0.
    schedule.options = {{"drift", 0.2}};
    run = exp::scenarioRunConfig(spec, schedule, 0.0);
    EXPECT_EQ(run.arrivals, ArrivalKind::Diurnal);
    EXPECT_DOUBLE_EQ(run.utilization, 0.75);
    EXPECT_DOUBLE_EQ(run.simulation.driftThreshold, 0.2);

    // online-peak applies Sec. 6.2's derivation:
    // rate = fraction * peak / mean output length.
    io::ScenarioSpec peak;
    peak.kind = "online-peak";
    peak.options = {{"fraction", 0.75}, {"seed", 43.0}};
    run = exp::scenarioRunConfig(spec, peak, 1000.0);
    EXPECT_EQ(run.arrivals, ArrivalKind::Diurnal);
    EXPECT_EQ(run.seed, 43u);
    trace::LengthModel lengths;
    EXPECT_DOUBLE_EQ(run.requestRate,
                     0.75 * 1000.0 / lengths.targetMeanOutput);
}

// --- docs/FILE_FORMATS.md worked examples ---------------------------
// These literals are byte-for-byte the examples in the doc; each must
// parse and round-trip so the normative reference cannot drift from
// the implementation.

TEST(DocFileFormats, ClusterExampleRoundTrips)
{
    const std::string example = "cluster v1\n"
                                "node a100-0 A100 312 80 2039 400 1 0\n"
                                "node t4-0 T4 65 16 300 70 1 1\n"
                                "link -1 0 1.25e9 0.0005\n"
                                "link -1 1 1.25e9 0.0005\n"
                                "link 0 -1 1.25e9 0.0005\n"
                                "link 0 1 1.25e9 0.0005\n"
                                "link 1 -1 1.25e9 0.0005\n"
                                "link 1 0 1.25e9 0.0005\n";
    io::ParseError error;
    auto clus = io::clusterFromString(example, error);
    ASSERT_TRUE(clus.has_value()) << error.str();
    EXPECT_EQ(clus->numNodes(), 2);
    EXPECT_EQ(clus->node(0).gpu.name, "A100");
    EXPECT_EQ(clus->node(1).region, 1);
    EXPECT_DOUBLE_EQ(clus->link(0, 1).bandwidthBps, 1.25e9);
    EXPECT_DOUBLE_EQ(clus->link(-1, 0).latencyS, 0.0005);
    // Canonical re-serialization is stable.
    std::string canonical = io::clusterToString(*clus);
    auto reparsed = io::clusterFromString(canonical, error);
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(io::clusterToString(*reparsed), canonical);
}

TEST(DocFileFormats, PlacementExampleRoundTrips)
{
    const std::string example = "placement v1 2\n"
                                "0 40\n"
                                "40 40\n";
    io::ParseError error;
    auto placement = io::placementFromString(example, error);
    ASSERT_TRUE(placement.has_value()) << error.str();
    ASSERT_EQ(placement->size(), 2u);
    EXPECT_EQ((*placement)[0].start, 0);
    EXPECT_EQ((*placement)[0].count, 40);
    EXPECT_EQ((*placement)[1].end(), 80);
    EXPECT_EQ(io::placementToString(*placement), example);
}

TEST(DocFileFormats, TraceExampleRoundTrips)
{
    const std::string example = "trace v1 3\n"
                                "0 0.25 763 232\n"
                                "1 1.75 2048 1\n"
                                "2 3.125 4 1024\n";
    io::ParseError error;
    auto requests = io::traceFromString(example, error);
    ASSERT_TRUE(requests.has_value()) << error.str();
    ASSERT_EQ(requests->size(), 3u);
    EXPECT_DOUBLE_EQ((*requests)[1].arrivalS, 1.75);
    EXPECT_EQ((*requests)[2].outputLen, 1024);
    EXPECT_EQ(io::traceToString(*requests), example);
}

TEST(DocFileFormats, ExperimentExampleParsesAndValidates)
{
    const std::string example =
        "experiment v1\n"
        "name fig6-mini\n"
        "output csv\n"
        "seed 42\n"
        "warmup 1\n"
        "measure 3\n"
        "planner-budget 0.05\n"
        "cluster single24\n"
        "model llama30b\n"
        "system helix helix helix\n"
        "system swarm swarm swarm\n"
        "scenario offline\n"
        "scenario online-peak fraction=0.75 seed=43\n";
    io::ParseError error;
    auto spec = io::experimentFromString(example, error);
    ASSERT_TRUE(spec.has_value()) << error.str();
    EXPECT_TRUE(exp::validateSpec(*spec, &error)) << error.str();
    EXPECT_EQ(spec->name, "fig6-mini");
    ASSERT_EQ(spec->systems.size(), 2u);
    ASSERT_EQ(spec->scenarios.size(), 2u);
    // Canonical re-serialization is stable.
    std::string canonical = io::experimentToString(*spec);
    auto reparsed = io::experimentFromString(canonical, error);
    ASSERT_TRUE(reparsed.has_value()) << error.str();
    EXPECT_EQ(io::experimentToString(*reparsed), canonical);
}

TEST(DocFileFormats, PortfolioGeneratedClusterExampleValidates)
{
    // Byte-for-byte the "planner portfolio on a generated cluster"
    // worked example in docs/FILE_FORMATS.md.
    const std::string example =
        "experiment v1\n"
        "name portfolio-scale\n"
        "output csv\n"
        "seed 42\n"
        "warmup 30\n"
        "measure 120\n"
        "planner-budget 2\n"
        "cluster gen:long-tail-heterogeneous:100:7\n"
        "model llama30b\n"
        "system portfolio portfolio helix\n"
        "system helix     helix     helix\n"
        "scenario offline\n";
    io::ParseError error;
    auto spec = io::experimentFromString(example, error);
    ASSERT_TRUE(spec.has_value()) << error.str();
    EXPECT_TRUE(exp::validateSpec(*spec, &error)) << error.str();
    EXPECT_EQ(spec->name, "portfolio-scale");
    EXPECT_DOUBLE_EQ(spec->plannerBudgetS, 2.0);
    ASSERT_EQ(spec->clusters.size(), 1u);
    EXPECT_EQ(spec->clusters[0].value,
              "gen:long-tail-heterogeneous:100:7");
    ASSERT_EQ(spec->systems.size(), 2u);
    EXPECT_EQ(spec->systems[0].planner, "portfolio");
    // Canonical re-serialization is stable.
    std::string canonical = io::experimentToString(*spec);
    auto reparsed = io::experimentFromString(canonical, error);
    ASSERT_TRUE(reparsed.has_value()) << error.str();
    EXPECT_EQ(io::experimentToString(*reparsed), canonical);
}

TEST(DocFileFormats, ChurnExampleMatchesShippedSpec)
{
    // Byte-for-byte the worked churn example in docs/FILE_FORMATS.md.
    const std::string example =
        "experiment v1\n"
        "name churn\n"
        "output csv\n"
        "seed 42\n"
        "warmup 1\n"
        "measure 6\n"
        "planner-budget 0.05\n"
        "cluster single24\n"
        "model llama30b\n"
        "system helix swarm helix\n"
        "system swarm swarm swarm\n"
        "scenario offline\n"
        "scenario churn online=0 fail=4@0.33 recover=4@0.66\n";
    io::ParseError error;
    auto spec = io::experimentFromString(example, error);
    ASSERT_TRUE(spec.has_value()) << error.str();
    EXPECT_TRUE(exp::validateSpec(*spec, &error)) << error.str();
    ASSERT_EQ(spec->scenarios.size(), 2u);
    ASSERT_EQ(spec->scenarios[1].events.size(), 2u);
    // Canonical re-serialization is stable...
    std::string canonical = io::experimentToString(*spec);
    auto reparsed = io::experimentFromString(canonical, error);
    ASSERT_TRUE(reparsed.has_value()) << error.str();
    EXPECT_EQ(io::experimentToString(*reparsed), canonical);
    // ...and the shipped examples/churn.exp is this exact experiment
    // (identical canonical bytes; the file only adds comments).
    auto shipped_text = io::readFile(examplePath("churn.exp"));
    ASSERT_TRUE(shipped_text.has_value());
    auto shipped = io::experimentFromString(*shipped_text, error);
    ASSERT_TRUE(shipped.has_value()) << error.str();
    EXPECT_EQ(io::experimentToString(*shipped), canonical);
}

TEST(DocFileFormats, ChurnDriftExampleRoundTrips)
{
    // Byte-for-byte the worked drift churn example in
    // docs/FILE_FORMATS.md.
    const std::string example =
        "experiment v1\n"
        "name churn-drift\n"
        "output csv\n"
        "seed 42\n"
        "warmup 1\n"
        "measure 6\n"
        "planner-budget 0.05\n"
        "cluster single24\n"
        "model llama30b\n"
        "system helix swarm helix\n"
        "scenario churn drift=0.25 online=0 "
        "fail=4@0.33 recover=4@0.66\n";
    io::ParseError error;
    auto spec = io::experimentFromString(example, error);
    ASSERT_TRUE(spec.has_value()) << error.str();
    EXPECT_TRUE(exp::validateSpec(*spec, &error)) << error.str();
    // Canonical re-serialization is stable (like the churn example
    // above: %.17g widens 0.05, so the doc bytes themselves are not
    // the canonical form).
    std::string canonical = io::experimentToString(*spec);
    auto reparsed = io::experimentFromString(canonical, error);
    ASSERT_TRUE(reparsed.has_value()) << error.str();
    EXPECT_EQ(io::experimentToString(*reparsed), canonical);

    // The spec keys reach the run configuration: drift threshold
    // 0.25, and the event schedule at fractions of the 1 + 6 second
    // horizon.
    ASSERT_EQ(spec->scenarios.size(), 1u);
    RunConfig run =
        exp::scenarioRunConfig(*spec, spec->scenarios[0], 0.0);
    EXPECT_DOUBLE_EQ(run.simulation.driftThreshold, 0.25);
    const auto &events = run.simulation.churnEvents;
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, sim::ChurnEvent::Kind::Fail);
    EXPECT_EQ(events[0].node, 4);
    EXPECT_DOUBLE_EQ(events[0].atSeconds, 0.33 * 7.0);
    EXPECT_EQ(events[1].kind, sim::ChurnEvent::Kind::Recover);
    EXPECT_DOUBLE_EQ(events[1].atSeconds, 0.66 * 7.0);
}

TEST(SpecValidate, GeneratedClusterNamesResolveWithLineErrors)
{
    // A well-formed generator name validates like any registry name.
    auto good = parseSpec(
        "experiment v1\ncluster gen:two-tier:12:7\nmodel llama30b\n"
        "system a swarm helix\nscenario offline\n");
    ASSERT_TRUE(good.has_value());
    io::ParseError error;
    EXPECT_TRUE(exp::validateSpec(*good, &error)) << error.str();

    // Unknown presets / malformed node counts report the spec line.
    for (const char *bad_name :
         {"gen:warehouse:12", "gen:two-tier:0", "gen:two-tier"}) {
        auto bad = parseSpec(
            std::string("experiment v1\ncluster ") + bad_name +
            "\nmodel llama30b\n"
            "system a swarm helix\nscenario offline\n");
        ASSERT_TRUE(bad.has_value()) << bad_name;
        EXPECT_FALSE(exp::validateSpec(*bad, &error)) << bad_name;
        EXPECT_EQ(error.line, 2) << bad_name;
        EXPECT_EQ(error.message.rfind("unknown cluster 'gen:", 0), 0u)
            << error.message;
    }

    // The churn node-range check sees the generated cluster's size.
    auto churn = parseSpec(
        "experiment v1\ncluster gen:two-tier:12:7\nmodel llama30b\n"
        "system a swarm helix\nscenario churn fail=12@0.3\n");
    ASSERT_TRUE(churn.has_value());
    EXPECT_FALSE(exp::validateSpec(*churn, &error));
    EXPECT_EQ(error.line, 5);
    EXPECT_EQ(error.message,
              "churn event node index 12 is out of range for the "
              "smallest declared cluster (12 nodes)");
}

// --- Engine equivalence ---------------------------------------------

/**
 * The acceptance criterion: running the fig6-equivalent golden spec
 * through the spec engine produces SimMetrics byte-identical to the
 * reference figure-comparison path, written out here directly over
 * ExperimentRunner: plan each system once, run the offline batch,
 * then the online batch at 75% of the first system's measured
 * offline peak.
 */
TEST(SpecEngine, MatchesDirectFigurePathByteForByte)
{
    auto text = io::readFile(dataPath("fig6_smoke.exp"));
    ASSERT_TRUE(text.has_value());
    auto spec = parseSpec(*text);
    ASSERT_TRUE(spec.has_value());

    io::ParseError error;
    auto results = exp::runSpec(*spec, &error);
    ASSERT_TRUE(results.has_value()) << error.str();
    ASSERT_EQ(results->size(), 4u); // 2 systems x 2 scenarios

    // Reference implementation: the direct runner path.
    auto clus = exp::clusterByName("single24");
    auto model_spec = exp::modelByName("llama30b");
    ASSERT_TRUE(clus && model_spec);
    struct Sys
    {
        const char *planner;
        SchedulerKind scheduler;
    };
    const Sys systems[] = {{"swarm", SchedulerKind::Swarm},
                           {"sp", SchedulerKind::FixedRoundRobin}};
    std::vector<Deployment> deployments;
    for (const Sys &sys : systems) {
        auto planner = exp::plannerByName(sys.planner, 0.05);
        deployments.emplace_back(*clus, *model_spec, *planner);
    }
    exp::ExperimentRunner runner;
    auto make_jobs = [&](const RunConfig &run) {
        std::vector<exp::Job> jobs;
        for (size_t i = 0; i < 2; ++i) {
            exp::Job job;
            job.deployment = &deployments[i];
            job.scheduler = systems[i].scheduler;
            job.run = run;
            jobs.push_back(std::move(job));
        }
        return jobs;
    };
    RunConfig offline;
    offline.simulation.warmupSeconds = 1.0;
    offline.simulation.measureSeconds = 3.0;
    offline.seed = 42;
    auto offline_rows = runner.run(make_jobs(offline));
    ASSERT_EQ(offline_rows.size(), 2u);
    EXPECT_GT(offline_rows[0].metrics.requestsArrived, 0);

    RunConfig online;
    online.arrivals = ArrivalKind::Diurnal;
    online.simulation.warmupSeconds = 1.0;
    online.simulation.measureSeconds = 3.0;
    online.seed = 43;
    trace::LengthModel lengths;
    online.requestRate = 0.75 *
                         offline_rows[0].metrics.decodeThroughput /
                         lengths.targetMeanOutput;
    auto online_rows = runner.run(make_jobs(online));

    expectMetricsIdentical(results->at(0).metrics,
                           offline_rows[0].metrics);
    expectMetricsIdentical(results->at(1).metrics,
                           offline_rows[1].metrics);
    expectMetricsIdentical(results->at(2).metrics,
                           online_rows[0].metrics);
    expectMetricsIdentical(results->at(3).metrics,
                           online_rows[1].metrics);
    EXPECT_EQ(results->at(0).plannedThroughput,
              offline_rows[0].plannedThroughput);
    EXPECT_EQ(results->at(1).plannedThroughput,
              offline_rows[1].plannedThroughput);

    // Labels carry the (cluster, model, system, scenario) coordinates.
    EXPECT_EQ(results->at(0).label,
              "single24/llama30b/swarm/offline");
    EXPECT_EQ(results->at(3).label,
              "single24/llama30b/sp/online-peak");
}

/** Spec execution is invariant to the worker-thread count. */
TEST(SpecEngine, ThreadCountInvariant)
{
    auto spec = parseSpec(
        "experiment v1\n"
        "warmup 1\nmeasure 2\nplanner-budget 0.05\n"
        "cluster planner10\nmodel llama30b\n"
        "planner swarm\nplanner sp\n"
        "scheduler helix\n"
        "scenario offline\nscenario churn online=0 fail=0@0.5\n");
    ASSERT_TRUE(spec.has_value());
    exp::RunnerOptions serial;
    serial.numThreads = 1;
    exp::RunnerOptions wide;
    wide.numThreads = 4;
    auto a = exp::runSpec(*spec, nullptr, serial);
    auto b = exp::runSpec(*spec, nullptr, wide);
    ASSERT_TRUE(a && b);
    ASSERT_EQ(a->size(), b->size());
    ASSERT_EQ(a->size(), 4u); // 2 planners x 1 sched x 2 scenarios
    for (size_t i = 0; i < a->size(); ++i) {
        EXPECT_EQ(a->at(i).label, b->at(i).label);
        expectMetricsIdentical(a->at(i).metrics, b->at(i).metrics);
    }
}

// --- Removed directives ---------------------------------------------

TEST(SpecErrors, RemovedSimThreadsDirectiveIsUnknown)
{
    // The simulator has one event loop; its old thread-count knob and
    // that knob's alias are plain unknown directives now.
    for (const char *prefix : {"sim", "simulation"}) {
        const std::string key = std::string(prefix) + "-threads";
        expectSpecError("experiment v1\nseed 7\n" + key + " 4\n", 3,
                        "unknown directive '" + key + "'");
    }
}

// --- Parameter registry (core/params.h) -----------------------------

TEST(SpecRegistry, DuplicateParameterDeclarationThrows)
{
    core::ParamRegistry registry;
    registry.parameter("alpha", core::ParamKind::Double);
    EXPECT_THROW(registry.parameter("alpha", core::ParamKind::Int),
                 std::logic_error);
    try {
        registry.parameter("alpha", core::ParamKind::Int);
        FAIL() << "expected std::logic_error";
    } catch (const std::logic_error &error) {
        EXPECT_STREQ(error.what(),
                     "duplicate parameter declaration 'alpha'");
    }
}

TEST(SpecRegistry, SpecKnobEnumerationPinned)
{
    // Declaration order is load-bearing: keysInScope() feeds the
    // pinned "(known: ...)" parse errors, so this list may only ever
    // grow at the end.
    const std::vector<std::string> top = {
        "name",          "output",
        "threads",       "seed",
        "warmup",        "measure",
        "planner-budget",
        "starvation-tolerance", "preemption-timeout",
        "cluster",       "model",
        "planner",       "scheduler",
        "system",        "scenario",
        "tenant",
    };
    EXPECT_EQ(core::specParams().keysInScope("top"), top);
    const std::vector<std::string> tenant = {"weight", "mix",
                                             "slo-ttft", "slo-tpot"};
    EXPECT_EQ(core::specParams().keysInScope("tenant"), tenant);
    EXPECT_EQ(io::tenantOptionKeys(), tenant);
}

TEST(SpecRegistry, RangeChecksMatchDeclaredBounds)
{
    const core::Param *mix = core::specParams().find("mix");
    ASSERT_NE(mix, nullptr);
    EXPECT_TRUE(mix->check(0.0));
    EXPECT_TRUE(mix->check(1.0));
    EXPECT_FALSE(mix->check(1.0000001));
    EXPECT_FALSE(mix->check(-0.0000001));
    const core::Param *weight = core::specParams().find("weight");
    ASSERT_NE(weight, nullptr);
    EXPECT_FALSE(weight->check(0.0));
    EXPECT_TRUE(weight->check(0.0000001));
    const core::Param *online = core::specParams().find("online");
    ASSERT_NE(online, nullptr);
    EXPECT_TRUE(online->check(0.0));
    EXPECT_TRUE(online->check(1.0));
    EXPECT_FALSE(online->check(0.5));
    // Every checked scenario option can say what it rejected.
    for (const std::string &kind : io::scenarioKinds()) {
        for (const std::string &key : io::scenarioOptionKeys(kind)) {
            const core::Param *param = core::specParams().find(key);
            ASSERT_NE(param, nullptr) << key;
            if (param->hasRange() ||
                param->kind() == core::ParamKind::Flag) {
                EXPECT_FALSE(param->formatError("x").empty()) << key;
            }
        }
    }
}

// --- Fair-share directives: grammar and ranges ----------------------

TEST(SpecErrors, FairShareDirectiveRanges)
{
    expectSpecError("experiment v1\nstarvation-tolerance\n", 2,
                    "'starvation-tolerance' needs 1 argument(s): "
                    "starvation-tolerance <fraction>");
    expectSpecError("experiment v1\nstarvation-tolerance 1.5\n", 2,
                    "starvation-tolerance must be a fraction in "
                    "[0, 1], got '1.5'");
    expectSpecError("experiment v1\nstarvation-tolerance -0.1\n", 2,
                    "starvation-tolerance must be a fraction in "
                    "[0, 1], got '-0.1'");
    expectSpecError("experiment v1\nstarvation-tolerance abc\n", 2,
                    "starvation-tolerance must be a fraction in "
                    "[0, 1], got 'abc'");
    expectSpecError("experiment v1\nstarvation-tolerance 0.5\n"
                    "starvation-tolerance 0.6\n",
                    3,
                    "duplicate 'starvation-tolerance' directive "
                    "(first on line 2)");
    expectSpecError("experiment v1\npreemption-timeout\n", 2,
                    "'preemption-timeout' needs 1 argument(s): "
                    "preemption-timeout <seconds>");
    expectSpecError("experiment v1\npreemption-timeout -1\n", 2,
                    "'preemption-timeout' must be a non-negative "
                    "number of seconds, got '-1'");
    // A budget is at most a day (core::kMaxPlannerBudgetS): 1e308
    // used to validate and then plan until killed.
    expectSpecError("experiment v1\nplanner-budget -1\n", 2,
                    "'planner-budget' must be a number of seconds in "
                    "[0, 86400], got '-1'");
    expectSpecError("experiment v1\nplanner-budget 1e308\n", 2,
                    "'planner-budget' must be a number of seconds in "
                    "[0, 86400], got '1e308'");
    expectSpecError("experiment v1\nplanner-budget 86400.5\n", 2,
                    "'planner-budget' must be a number of seconds in "
                    "[0, 86400], got '86400.5'");
    auto longest = parseSpec(
        "experiment v1\ncluster planner10\nmodel llama30b\n"
        "system a swarm helix\nscenario offline\n"
        "planner-budget 86400\n");
    ASSERT_TRUE(longest.has_value());
    EXPECT_TRUE(sameValue(longest->plannerBudgetS, 86400.0));
    // Pre-registry knobs keep their exact messages through the
    // registry migration.
    expectSpecError("experiment v1\nmeasure -0.5\n", 2,
                    "'measure' must be a positive number of seconds, "
                    "got '-0.5'");
    // Per-tenant throughput divides by the window: 0 used to emit
    // "-nan" into the JSON.
    expectSpecError("experiment v1\nmeasure 0\n", 2,
                    "'measure' must be a positive number of seconds, "
                    "got '0'");
    expectSpecError("experiment v1\nthreads -1\n", 2,
                    "threads must be a non-negative integer, "
                    "got '-1'");
}

// --- Tenant lines: grammar, options, and cross-line validation ------

TEST(SpecErrors, TenantGrammar)
{
    expectSpecError("experiment v1\ntenant\n", 2,
                    "'tenant' needs a name: tenant <name> "
                    "[key=value ...]");
    expectSpecError("experiment v1\ntenant a weight=1\n"
                    "tenant a weight=2\n",
                    3, "duplicate tenant 'a' (first on line 2)");
    expectSpecError("experiment v1\ntenant a weight\n", 2,
                    "tenant option 'weight' is not key=value");
    expectSpecError("experiment v1\ntenant a quota=3\n", 2,
                    "tenant 'a' does not take option 'quota' (known: "
                    "weight, mix, slo-ttft, slo-tpot)");
    // A knob that exists in another scope is still unknown here.
    expectSpecError("experiment v1\ntenant a utilization=0.5\n", 2,
                    "tenant 'a' does not take option 'utilization' "
                    "(known: weight, mix, slo-ttft, slo-tpot)");
    expectSpecError("experiment v1\ntenant a weight=1 weight=2\n", 2,
                    "duplicate tenant option 'weight'");
    expectSpecError("experiment v1\ntenant a weight=abc\n", 2,
                    "tenant option 'weight' has non-numeric value "
                    "'abc'");
    expectSpecError("experiment v1\ntenant a weight=0\n", 2,
                    "tenant option 'weight' must be positive, "
                    "got '0'");
    expectSpecError("experiment v1\ntenant a weight=-2\n", 2,
                    "tenant option 'weight' must be positive, "
                    "got '-2'");
    expectSpecError("experiment v1\ntenant a weight=1 mix=1.5\n", 2,
                    "tenant option 'mix' must be a fraction in "
                    "[0, 1], got '1.5'");
    expectSpecError("experiment v1\ntenant a weight=1 slo-ttft=0\n",
                    2,
                    "tenant option 'slo-ttft' must be a positive "
                    "number of seconds, got '0'");
    expectSpecError("experiment v1\ntenant a weight=1 slo-tpot=-1\n",
                    2,
                    "tenant option 'slo-tpot' must be a positive "
                    "number of seconds, got '-1'");
    expectSpecError("experiment v1\ntenant a mix=0.5\n", 2,
                    "tenant 'a' requires weight=<w>");
}

TEST(SpecErrors, TenantNamesThatCorruptTenantStatsAreRejected)
{
    // tenant_stats joins `name:w=...` records with ';', so a name
    // carrying either separator would forge a record.
    expectSpecError("experiment v1\nseed 7\ntenant a;x:w=9 weight=1\n",
                    3, "tenant name 'a;x:w=9' must match "
                       "[A-Za-z0-9_.-]+");
    // A missing name must not pass an option off as one.
    expectSpecError("experiment v1\ntenant weight=2\n", 2,
                    "tenant name 'weight=2' must match "
                    "[A-Za-z0-9_.-]+");
    expectSpecError("experiment v1\ntenant \"a\" weight=1\n", 2,
                    "tenant name '\"a\"' must match [A-Za-z0-9_.-]+");
    auto spec = parseSpec("experiment v1\n"
                          "cluster planner10\nmodel llama30b\n"
                          "system a swarm helix\nscenario offline\n"
                          "tenant Batch_1.v-2 weight=1\n");
    ASSERT_TRUE(spec.has_value());
    EXPECT_EQ(spec->tenants.at(0).name, "Batch_1.v-2");
}

TEST(SpecErrors, TenantMixesAreAllOrNoneAndSumToOne)
{
    const std::string head = "experiment v1\n"
                             "cluster planner10\n"
                             "model llama30b\n"
                             "planner swarm\n"
                             "scheduler helix\n"
                             "scenario offline\n";
    // A missing mix is reported on the offending tenant's line.
    expectSpecError(head + "tenant a weight=1 mix=0.5\n"
                           "tenant b weight=1\n",
                    8,
                    "tenant 'b' needs mix=<fraction>: arrival mixes "
                    "are all-or-none");
    // A bad sum is reported on the first tenant line.
    expectSpecError(head + "tenant a weight=1 mix=0.5\n"
                           "tenant b weight=1 mix=0.25\n",
                    7, "tenant mixes must sum to 1, got 0.75");
}

TEST(SpecRoundTrip, MultiTenantWorkedExamplePinnedByteForByte)
{
    // The worked example from docs/FILE_FORMATS.md, pinned in its
    // canonical form: parse -> serialize must reproduce these exact
    // bytes. starvation-tolerance / preemption-timeout are emitted
    // only when tenants are declared; unset tenant options (mix,
    // SLOs) stay omitted.
    const std::string canonical =
        "experiment v1\n"
        "name multi-tenant-example\n"
        "output csv\n"
        "seed 7\n"
        "warmup 10\n"
        "measure 60\n"
        "planner-budget 0.5\n"
        "starvation-tolerance 0.5\n"
        "preemption-timeout 2\n"
        "cluster gen:geo-distributed:64\n"
        "model llama30b\n"
        "planner swarm\n"
        "scheduler helix\n"
        "tenant batch weight=1 mix=0.75\n"
        "tenant interactive weight=4 mix=0.25 slo-ttft=1.5 "
        "slo-tpot=0.125\n"
        "scenario offline\n";
    io::ParseError error;
    auto spec = io::experimentFromString(canonical, error);
    ASSERT_TRUE(spec.has_value())
        << error.line << ": " << error.message;
    ASSERT_EQ(spec->tenants.size(), 2u);
    EXPECT_EQ(spec->tenants[0].name, "batch");
    EXPECT_EQ(spec->tenants[0].weight, 1.0);
    EXPECT_EQ(spec->tenants[0].mix, 0.75);
    EXPECT_EQ(spec->tenants[0].sloTtftS, 0.0);
    EXPECT_EQ(spec->tenants[1].name, "interactive");
    EXPECT_EQ(spec->tenants[1].weight, 4.0);
    EXPECT_EQ(spec->tenants[1].sloTtftS, 1.5);
    EXPECT_EQ(spec->tenants[1].sloTpotS, 0.125);
    EXPECT_EQ(spec->starvationTolerance, 0.5);
    EXPECT_EQ(spec->preemptionTimeoutS, 2.0);
    EXPECT_EQ(io::experimentToString(*spec), canonical);

    // Without tenants the fair-share directives are not emitted, so
    // pre-tenancy specs round-trip to their pre-tenancy bytes.
    auto plain = parseSpec("experiment v1\n"
                           "cluster planner10\n"
                           "model llama30b\n"
                           "planner swarm\n"
                           "scheduler helix\n"
                           "scenario offline\n");
    ASSERT_TRUE(plain.has_value());
    EXPECT_TRUE(plain->tenants.empty());
    const std::string emitted = io::experimentToString(*plain);
    EXPECT_EQ(emitted.find("starvation-tolerance"),
              std::string::npos);
    EXPECT_EQ(emitted.find("preemption-timeout"), std::string::npos);
    EXPECT_EQ(emitted.find("tenant"), std::string::npos);
}

/** runSpec refuses invalid specs through the same validate path. */
TEST(SpecEngine, RejectsInvalidSpecWithError)
{
    auto spec = parseSpec(
        "experiment v1\ncluster nimbus9000\nmodel llama30b\n"
        "system a swarm helix\nscenario offline\n");
    ASSERT_TRUE(spec.has_value());
    io::ParseError error;
    auto results = exp::runSpec(*spec, &error);
    EXPECT_FALSE(results.has_value());
    EXPECT_EQ(error.line, 2);
}

/** runSpec refuses @p text before running the scenario on @p line,
 *  with @p message. */
void
expectRunSpecError(const std::string &text, int line,
                   const std::string &message)
{
    auto spec = parseSpec(text);
    ASSERT_TRUE(spec.has_value()) << text;
    io::ParseError error;
    auto results = exp::runSpec(*spec, &error);
    EXPECT_FALSE(results.has_value()) << text;
    EXPECT_EQ(error.line, line) << text;
    EXPECT_EQ(error.message, message) << text;
}

/** A scenario whose trace would hold 2^31 requests or more, or arrive
 *  at an infinite rate, is refused before it runs: request indices are
 *  int, and an infinite rate never advances the arrivals. */
TEST(SpecEngine, RefusesTracesOfTwoToThe31RequestsOrMore)
{
    const std::string head = "experiment v1\ncluster single24\n"
                             "model llama30b\nplanner swarm\n"
                             "scheduler helix\n";
    expectRunSpecError(head + "scenario offline utilization=1e7\n", 6,
                       "scenario 'offline' asks for 3.02431e+09 "
                       "requests over its 153 s trace; a trace holds "
                       "fewer than 2^31");
    expectRunSpecError(head + "scenario offline utilization=1e308\n", 6,
                       "scenario 'offline' asks for inf requests over "
                       "its 153 s trace; a trace holds fewer than 2^31");

    // A normal utilization still runs.
    auto spec = parseSpec(head + "warmup 1\nmeasure 3\n"
                                 "scenario offline utilization=0.5\n");
    ASSERT_TRUE(spec.has_value());
    io::ParseError error;
    auto results = exp::runSpec(*spec, &error);
    ASSERT_TRUE(results.has_value()) << error.str();
    ASSERT_EQ(results->size(), 1u);
    EXPECT_GT(results->front().metrics.requestsArrived, 0);
}

// --- Engine goldens --------------------------------------------------

/**
 * runSpec's absolute output for a spec file: every row's exhaustive
 * SimMetrics fingerprint, then the JSON and CSV emitter bytes, with
 * the wall clock (the one field allowed to differ between runs)
 * pinned to 0.
 */
std::string
specEngineBytes(const std::string &file)
{
    auto text = io::readFile(dataPath(file));
    EXPECT_TRUE(text.has_value()) << file;
    if (!text)
        return {};
    auto spec = parseSpec(*text);
    if (!spec)
        return {};
    io::ParseError error;
    auto results = exp::runSpec(*spec, &error);
    EXPECT_TRUE(results.has_value()) << file << ": " << error.str();
    if (!results)
        return {};
    std::string bytes;
    for (exp::JobResult &result : *results) {
        result.wallSeconds = 0.0;
        bytes += "=== " + result.label + " ===\n" +
                 sim::fingerprint(result.metrics);
    }
    return bytes + "=== emitters ===\n" + exp::resultsToJson(*results) +
           "\n---\n" + exp::resultsToCsv(*results);
}

/**
 * The spec engine end to end, from scenario line to emitted bytes,
 * against tests/data/spec_golden/<name>.txt. On a mismatch the actual
 * bytes are written next to the test binary as <name>.actual.txt, so
 * a deliberate behaviour change is reviewed with `diff` and landed by
 * copying that file over the golden.
 */
TEST(SpecGolden, EngineOutputsMatchGoldens)
{
    for (const std::string name : {"fig6_smoke", "scenario_kinds"}) {
        const std::string golden_path =
            dataPath("spec_golden/" + name + ".txt");
        const std::string actual = specEngineBytes(name + ".exp");
        auto golden = io::readFile(golden_path);
        if (golden && actual == *golden)
            continue;
        const std::string actual_path =
            std::string(HELIX_TEST_BINARY_DIR) + "/" + name +
            ".actual.txt";
        std::ofstream(actual_path, std::ios::binary) << actual;
        ADD_FAILURE() << name << ": output differs from " << golden_path
                      << "\nactual bytes written to " << actual_path;
    }
}

} // namespace
} // namespace helix
