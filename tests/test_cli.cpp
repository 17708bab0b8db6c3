/**
 * @file
 * Integration tests for the helixctl binary: the tests spawn the real
 * CLI (path from $HELIXCTL_BIN, wired by CTest) and check its
 * behavior against the in-process engine — including the acceptance
 * criterion that `helixctl run` on the fig6-equivalent golden spec
 * emits results byte-identical (modulo the wall-clock column) to the
 * in-process exp::runSpec library path.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "cluster/generator.h"
#include "exp/spec.h"
#include "io/serialization.h"
#include "io/spec.h"
#include "placement/placement_graph.h"

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

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "helixctl_" +
           std::to_string(::getpid()) + "_" + name;
}

struct CmdResult
{
    int exitCode = -1;
    std::string out;
    std::string err;
};

/** Run `helixctl <args>`, capturing exit code, stdout, and stderr.
 *  @p shell_prefix runs first in the same shell (e.g. a ulimit). */
CmdResult
helixctl(const std::string &args, const std::string &shell_prefix = "")
{
    const char *bin = std::getenv("HELIXCTL_BIN");
    EXPECT_NE(bin, nullptr);
    CmdResult result;
    std::string out_path = tempPath("stdout.txt");
    std::string err_path = tempPath("stderr.txt");
    std::string cmd = shell_prefix + std::string(bin) + " " + args +
                      " > " + out_path + " 2> " + err_path;
    int rc = std::system(cmd.c_str());
    result.exitCode = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    result.out = io::readFile(out_path).value_or("");
    result.err = io::readFile(err_path).value_or("");
    std::remove(out_path.c_str());
    std::remove(err_path.c_str());
    return result;
}

class CliTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        if (!std::getenv("HELIXCTL_BIN")) {
            GTEST_SKIP() << "HELIXCTL_BIN not set (run under CTest)";
        }
    }
};

TEST_F(CliTest, ValidateAcceptsShippedExamples)
{
    CmdResult result = helixctl("validate " +
                                examplePath("fig6.exp") + " " +
                                examplePath("sweep.exp") + " " +
                                examplePath("portfolio.exp"));
    EXPECT_EQ(result.exitCode, 0) << result.err;
    EXPECT_NE(result.out.find("fig6.exp: OK"), std::string::npos)
        << result.out;
    EXPECT_NE(result.out.find("sweep.exp: OK"), std::string::npos)
        << result.out;
    EXPECT_NE(result.out.find("portfolio.exp: OK"), std::string::npos)
        << result.out;
}

TEST_F(CliTest, ValidateResolvesATenThousandNodeClusterCheaply)
{
    // Validation resolves the cluster, and links are stored by class:
    // a dense (N+1)^2 link matrix would need 1.6 GB at 10k nodes and
    // fail under the 1 GB address-space cap. Address and thread
    // sanitizers reserve terabytes of address space, so they run
    // uncapped.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    const std::string cap;
#else
    const std::string cap = "ulimit -v 1048576; ";
#endif
    std::string path = tempPath("big.exp");
    ASSERT_TRUE(io::writeFile(path, "experiment v1\n"
                                    "cluster gen:geo-distributed:10000\n"
                                    "model llama30b\n"
                                    "system a swarm helix\n"
                                    "scenario offline\n"));
    auto begin = std::chrono::steady_clock::now();
    CmdResult result = helixctl("validate " + path, cap);
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - begin)
                         .count();
    EXPECT_EQ(result.exitCode, 0) << result.err;
    EXPECT_NE(result.out.find("big.exp: OK"), std::string::npos)
        << result.out;
    EXPECT_LT(seconds, 10.0);
    std::remove(path.c_str());
}

TEST_F(CliTest, ValidateReportsLineNumberedErrors)
{
    std::string bad_path = tempPath("bad.exp");
    ASSERT_TRUE(io::writeFile(bad_path,
                              "experiment v1\n"
                              "cluster nimbus9000\n"
                              "model llama30b\n"
                              "system a swarm helix\n"
                              "scenario offline\n"));
    CmdResult result = helixctl("validate " + bad_path);
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.err.find(bad_path + ":2: unknown cluster "
                              "'nimbus9000'"),
              std::string::npos)
        << result.err;

    // A grammar-level error reports its line the same way.
    ASSERT_TRUE(io::writeFile(bad_path,
                              "experiment v1\n"
                              "cluster planner10\n"
                              "model llama30b\n"
                              "system a swarm helix\n"
                              "scenario rushhour\n"));
    result = helixctl("validate " + bad_path);
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.err.find(bad_path + ":5: unknown scenario kind "
                              "'rushhour'"),
              std::string::npos)
        << result.err;

    // So does a range error. A zero window once validated and then
    // emitted "-nan" per-tenant throughput into the JSON.
    ASSERT_TRUE(io::writeFile(bad_path, "experiment v1\n"
                                        "cluster planner10\n"
                                        "measure 0\n"));
    result = helixctl("validate " + bad_path);
    EXPECT_EQ(result.exitCode, 1);
    EXPECT_NE(result.err.find(bad_path + ":3: 'measure' must be a "
                              "positive number of seconds, got '0'"),
              std::string::npos)
        << result.err;
    std::remove(bad_path.c_str());
}

TEST_F(CliTest, ValidateRejectsOutOfRangeAndRemovedScenarioOptions)
{
    // Each of these once printed OK and then aborted or misbehaved in
    // `helixctl run`; the removed churn keys must not validate either.
    const struct
    {
        const char *scenario;
        const char *message;
    } cases[] = {
        {"bursty burst=0 gap=0",
         "scenario option 'burst' must be a positive number of "
         "seconds, got '0'"},
        {"bursty multiplier=0.25",
         "scenario option 'multiplier' must be at least 1, got '0.25'"},
        {"offline utilization=-2",
         "scenario option 'utilization' must be positive, got '-2'"},
        {"offline measure=0",
         "'measure' must be a positive number of seconds, got '0'"},
        {"churn node=0 at=0.3",
         "scenario 'churn' does not take option 'node'"},
        {"churn repair=1 fail=0@0.3",
         "scenario 'churn' does not take option 'repair'"},
    };
    std::string bad_path = tempPath("hostile.exp");
    for (const auto &c : cases) {
        ASSERT_TRUE(io::writeFile(bad_path,
                                  std::string("experiment v1\n"
                                              "cluster planner10\n"
                                              "model llama30b\n"
                                              "system a swarm helix\n"
                                              "scenario ") +
                                      c.scenario + "\n"));
        CmdResult result = helixctl("validate " + bad_path);
        EXPECT_EQ(result.exitCode, 1) << c.scenario;
        EXPECT_NE(result.err.find(bad_path + ":5: " + c.message),
                  std::string::npos)
            << c.scenario << ": " << result.err;
    }
    std::remove(bad_path.c_str());
}

TEST_F(CliTest, ValidateRejectsRemovedSimulatorThreadsDirective)
{
    // The simulator has one event loop; its old thread-count knob and
    // that knob's alias must fail validation at their line.
    std::string bad_path = tempPath("threads.exp");
    for (const char *prefix : {"sim", "simulation"}) {
        const std::string key = std::string(prefix) + "-threads";
        ASSERT_TRUE(io::writeFile(bad_path, "experiment v1\n"
                                            "cluster planner10\n" +
                                                key + " 4\n"));
        CmdResult result = helixctl("validate " + bad_path);
        EXPECT_EQ(result.exitCode, 1) << key;
        EXPECT_NE(result.err.find(bad_path + ":3: unknown directive '" +
                                  key + "'"),
                  std::string::npos)
            << key << ": " << result.err;
    }
    std::remove(bad_path.c_str());
}

/** Drop the trailing wall_seconds column from every CSV line. */
std::vector<std::string>
csvWithoutWallSeconds(const std::string &csv)
{
    std::vector<std::string> lines;
    std::istringstream in(csv);
    std::string line;
    while (std::getline(in, line)) {
        size_t comma = line.rfind(',');
        EXPECT_NE(comma, std::string::npos) << line;
        lines.push_back(line.substr(0, comma));
    }
    return lines;
}

/**
 * Acceptance: `helixctl run` on the fig6-equivalent golden spec
 * (tests/data/fig6_smoke.exp — the examples/fig6.exp structure with
 * deterministic planners) reproduces the comparison with every
 * metric field byte-identical to the in-process engine (wall-clock
 * timings excluded; the helix planner itself is excluded because its
 * placements depend on a wall-clock search budget — see
 * test_spec.cpp for the in-process equivalence of the full engine
 * against the direct runner path).
 */
TEST_F(CliTest, RunEmitsCsvByteIdenticalToTheEngine)
{
    std::string csv_path = tempPath("fig6.csv");
    CmdResult result = helixctl("run " + dataPath("fig6_smoke.exp") +
                                " --csv " + csv_path);
    ASSERT_EQ(result.exitCode, 0) << result.err;
    EXPECT_NE(result.out.find("experiment 'fig6-smoke': 4 runs"),
              std::string::npos)
        << result.out;
    auto cli_csv = io::readFile(csv_path);
    std::remove(csv_path.c_str());
    ASSERT_TRUE(cli_csv.has_value());

    auto text = io::readFile(dataPath("fig6_smoke.exp"));
    ASSERT_TRUE(text.has_value());
    io::ParseError error;
    auto spec = io::experimentFromString(*text, error);
    ASSERT_TRUE(spec.has_value()) << error.str();
    auto results = exp::runSpec(*spec);
    ASSERT_TRUE(results.has_value());
    std::string engine_csv = exp::resultsToCsv(*results);

    auto cli_lines = csvWithoutWallSeconds(*cli_csv);
    auto engine_lines = csvWithoutWallSeconds(engine_csv);
    ASSERT_EQ(cli_lines.size(), engine_lines.size());
    ASSERT_EQ(cli_lines.size(), 5u); // header + 4 runs
    for (size_t i = 0; i < cli_lines.size(); ++i)
        EXPECT_EQ(cli_lines[i], engine_lines[i]) << "line " << i;
}

TEST_F(CliTest, RunRespectsSpecOutputOnStdout)
{
    // sweep-style spec with output json and a '-' emitter goes to
    // stdout as JSON.
    std::string spec_path = tempPath("mini.exp");
    ASSERT_TRUE(io::writeFile(spec_path,
                              "experiment v1\n"
                              "name mini\noutput json\n"
                              "warmup 1\nmeasure 1\n"
                              "planner-budget 0.05\n"
                              "cluster planner10\nmodel llama30b\n"
                              "system sw swarm helix\n"
                              "scenario offline\n"));
    CmdResult result = helixctl("run " + spec_path + " --json -");
    EXPECT_EQ(result.exitCode, 0) << result.err;
    EXPECT_EQ(result.out.rfind("[", 0), 0u) << result.out;
    EXPECT_NE(result.out.find("\"label\": "
                              "\"planner10/llama30b/sw/offline\""),
              std::string::npos)
        << result.out;
    std::remove(spec_path.c_str());
}

TEST_F(CliTest, PlanWritesAValidPlacementArtifact)
{
    std::string out_path = tempPath("placement.txt");
    CmdResult result = helixctl(
        "plan planner10 llama30b --planner swarm --out " + out_path);
    ASSERT_EQ(result.exitCode, 0) << result.err;
    auto text = io::readFile(out_path);
    std::remove(out_path.c_str());
    ASSERT_TRUE(text.has_value());

    io::ParseError error;
    auto placement = io::placementFromString(*text, error);
    ASSERT_TRUE(placement.has_value()) << error.str();

    // The artifact matches an in-process swarm plan byte-for-byte
    // and is valid for the cluster it was planned on.
    auto clus = exp::clusterByName("planner10");
    auto model_spec = exp::modelByName("llama30b");
    ASSERT_TRUE(clus && model_spec);
    cluster::Profiler prof(*model_spec);
    auto planner = exp::plannerByName("swarm", 0.05);
    EXPECT_EQ(*text, io::placementToString(planner->plan(*clus, prof)));
    EXPECT_TRUE(placement::placementValid(*placement, *clus, prof));
}

/**
 * The helix planner's candidate counts, its chain count and the
 * winning chain go to stderr after the summary line; stdout carries
 * the `placement v1` artifact alone. At budget 0 the flow search
 * scores its four warm starts and its chains take no step, so the
 * plan, the counts and the winner (chain 0, the lowest of equals) are
 * deterministic.
 */
TEST_F(CliTest, PlanReportsCandidateCountsOnStderrOnly)
{
    CmdResult result =
        helixctl("plan planner10 llama30b --planner helix --budget 0");
    ASSERT_EQ(result.exitCode, 0) << result.err;

    auto clus = exp::clusterByName("planner10");
    auto model_spec = exp::modelByName("llama30b");
    ASSERT_TRUE(clus && model_spec);
    cluster::Profiler prof(*model_spec);
    auto planner = exp::plannerByName("helix", 0.0);
    EXPECT_EQ(result.out,
              io::placementToString(planner->plan(*clus, prof)));

    const std::string summary = "planned " + model_spec->name +
                                " on planner10 with helix: ";
    ASSERT_EQ(result.err.rfind(summary, 0), 0u) << result.err;
    const size_t line_end = result.err.find('\n');
    ASSERT_NE(line_end, std::string::npos);
    EXPECT_EQ(result.err.substr(line_end + 1),
              "candidates: 4 evaluated, 4 solved by 4 chains, best from "
              "chain 0\n");
}

TEST_F(CliTest, ListDumpsEveryRegistry)
{
    CmdResult result = helixctl("list");
    EXPECT_EQ(result.exitCode, 0);
    for (const char *needle :
         {"single24", "hetero42", "llama30b", "llama3-405b",
          "helix-partitioned", "portfolio", "uniform",
          "shortest-queue", "offline", "online-peak", "churn",
          "gen:<preset>:<nodes>[:<seed>]", "homogeneous", "two-tier",
          "long-tail-heterogeneous", "geo-distributed"}) {
        EXPECT_NE(result.out.find(needle), std::string::npos)
            << needle;
    }
}

TEST_F(CliTest, VersionIsPrinted)
{
    CmdResult result = helixctl("--version");
    EXPECT_EQ(result.exitCode, 0);
    EXPECT_EQ(result.out.rfind("helixctl ", 0), 0u) << result.out;
    EXPECT_GT(result.out.size(), std::string("helixctl \n").size());
    // `helixctl version` is an accepted spelling of the same thing.
    EXPECT_EQ(helixctl("version").out, result.out);
}

/**
 * Every subcommand documents itself with --help (exit 0, synopsis on
 * stdout). The asserted fragments are the flag lines from the
 * normative help strings in src/cli/helixctl.cpp, so the CLI's
 * self-documentation cannot silently drift from its argument parser.
 */
TEST_F(CliTest, EverySubcommandPrintsHelp)
{
    struct HelpCase
    {
        const char *cmd;
        std::vector<const char *> fragments;
    };
    const HelpCase cases[] = {
        {"run",
         {"usage: helixctl run <spec.exp>", "--csv FILE",
          "--json FILE", "--threads N"}},
        {"plan",
         {"usage: helixctl plan <cluster> <model>", "--planner NAME",
          "--budget SECONDS", "--threads N", "--out FILE",
          "gen:<preset>:<nodes>[:<seed>]"}},
        {"gen-cluster",
         {"usage: helixctl gen-cluster <preset>", "--nodes N",
          "--seed S", "--out FILE",
          "homogeneous, two-tier, long-tail-heterogeneous, "
          "geo-distributed"}},
        {"validate",
         {"usage: helixctl validate <spec.exp>",
          "'<path>:<line>: <message>'"}},
        {"list", {"usage: helixctl list", "Dump every registry"}},
    };
    for (const HelpCase &c : cases) {
        for (const char *flag : {"--help", "-h"}) {
            CmdResult result =
                helixctl(std::string(c.cmd) + " " + flag);
            EXPECT_EQ(result.exitCode, 0) << c.cmd;
            for (const char *fragment : c.fragments) {
                EXPECT_NE(result.out.find(fragment),
                          std::string::npos)
                    << c.cmd << " " << flag << ": missing '"
                    << fragment << "' in:\n"
                    << result.out;
            }
        }
    }
}

TEST_F(CliTest, GenClusterWritesADeterministicClusterArtifact)
{
    std::string out_path = tempPath("gen.cluster");
    CmdResult result = helixctl(
        "gen-cluster two-tier --nodes 12 --seed 7 --out " + out_path);
    ASSERT_EQ(result.exitCode, 0) << result.err;
    EXPECT_NE(result.err.find("generated two-tier cluster (seed 7)"),
              std::string::npos)
        << result.err;
    auto text = io::readFile(out_path);
    std::remove(out_path.c_str());
    ASSERT_TRUE(text.has_value());

    // The artifact is valid `cluster v1` and byte-identical to the
    // in-process generator (and therefore to a re-run of the CLI).
    io::ParseError error;
    auto clus = io::clusterFromString(*text, error);
    ASSERT_TRUE(clus.has_value()) << error.str();
    EXPECT_EQ(clus->numNodes(), 12);
    cluster::gen::GeneratorConfig config;
    config.preset = "two-tier";
    config.numNodes = 12;
    config.seed = 7;
    auto direct = cluster::gen::generate(config);
    ASSERT_TRUE(direct.has_value());
    EXPECT_EQ(*text, io::clusterToString(*direct));

    // The spec registry resolves the same cluster by name.
    auto by_name = exp::clusterByName("gen:two-tier:12:7");
    ASSERT_TRUE(by_name.has_value());
    EXPECT_EQ(*text, io::clusterToString(*by_name));
}

/**
 * The portfolio determinism criterion at the CLI surface: with
 * deterministic members, `helixctl plan --planner portfolio:...`
 * writes a byte-identical `placement v1` artifact whether the member
 * race runs on 1, 4, or 16 threads.
 */
TEST_F(CliTest, PlanPortfolioIsByteIdenticalAcrossThreadCounts)
{
    std::string reference;
    for (const char *threads : {"1", "4", "16"}) {
        std::string out_path = tempPath("portfolio.placement");
        CmdResult result = helixctl(
            "plan gen:two-tier:16:7 llama30b "
            "--planner portfolio:swarm,petals,sp+,uniform "
            "--budget 0.1 --threads " +
            std::string(threads) + " --out " + out_path);
        ASSERT_EQ(result.exitCode, 0) << result.err;
        auto text = io::readFile(out_path);
        std::remove(out_path.c_str());
        ASSERT_TRUE(text.has_value());
        io::ParseError error;
        EXPECT_TRUE(io::placementFromString(*text, error).has_value())
            << error.str();
        if (reference.empty())
            reference = *text;
        EXPECT_EQ(*text, reference) << threads << " threads";
    }
}

TEST_F(CliTest, UsageAndFailureExitCodes)
{
    EXPECT_EQ(helixctl("").exitCode, 2);
    EXPECT_EQ(helixctl("frobnicate").exitCode, 2);
    EXPECT_EQ(helixctl("run").exitCode, 2);
    EXPECT_EQ(helixctl("run /nonexistent/spec.exp").exitCode, 1);
    EXPECT_EQ(helixctl("run x.exp --threads abc").exitCode, 2);
    EXPECT_EQ(helixctl("plan planner10 llama30b --budget abc")
                  .exitCode,
              2);
    // A budget above a day (core::kMaxPlannerBudgetS) used to plan
    // until killed.
    CmdResult huge = helixctl("plan planner10 llama30b --budget 1e308");
    EXPECT_EQ(huge.exitCode, 2);
    EXPECT_EQ(huge.err, "plan: --budget needs a number of seconds in "
                        "[0, 86400], got '1e308'\n");
    EXPECT_EQ(huge.out, "");
    EXPECT_EQ(helixctl("plan planner10 llama30b --threads abc")
                  .exitCode,
              2);
    EXPECT_EQ(helixctl("plan nimbus9000 llama30b").exitCode, 1);
    EXPECT_EQ(helixctl("plan planner10 llama30b --planner portfolio:")
                  .exitCode,
              1);
    EXPECT_EQ(helixctl("validate /nonexistent/spec.exp").exitCode, 1);
    EXPECT_EQ(helixctl("gen-cluster").exitCode, 2);
    EXPECT_EQ(helixctl("gen-cluster two-tier --nodes abc").exitCode,
              2);
    EXPECT_EQ(helixctl("gen-cluster two-tier --nodes 0").exitCode, 2);
    EXPECT_EQ(helixctl("gen-cluster warehouse").exitCode, 1);
}

} // namespace
} // namespace helix
