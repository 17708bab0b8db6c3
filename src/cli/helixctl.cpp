/**
 * @file
 * helixctl: the command-line front end over the experiment engine.
 *
 *   helixctl run <spec.exp> [--csv FILE] [--json FILE] [--threads N]
 *       Execute a declarative `experiment v1` sweep and emit results.
 *       With no output flag, the spec's `output` format goes to
 *       stdout after a human-readable summary table; `-` as FILE
 *       writes the emitter to stdout and suppresses the table.
 *
 *   helixctl plan <cluster> <model> [--planner NAME] [--budget S]
 *                 [--threads N] [--out FILE]
 *       Run a placement planner and write a `placement v1` artifact
 *       (stdout by default). The summary goes to stderr, followed
 *       for `helix` by the flow search's candidate counts, its chain
 *       count and the chain whose placement won. An unknown planner
 *       name exits 1 with the registry's planner names.
 *
 *   helixctl gen-cluster <preset> [--nodes N] [--seed S] [--out FILE]
 *       Generate a synthetic cluster and write it as a `cluster v1`
 *       artifact (stdout by default).
 *
 *   helixctl validate <spec.exp> [...]
 *       Parse + registry-resolve specs without running anything;
 *       errors are reported as `<path>:<line>: <message>`.
 *
 *   helixctl list
 *       Dump the registries a spec can name.
 *
 * Every subcommand prints its own synopsis with `--help`;
 * `helixctl --version` prints the release version.
 *
 * Exit codes: 0 success, 1 runtime/validation failure, 2 usage error.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/generator.h"
#include "core/params.h"
#include "exp/spec.h"
#include "io/serialization.h"
#include "io/spec.h"
#include "placement/helix_planner.h"

#ifndef HELIX_VERSION
#define HELIX_VERSION "dev"
#endif

namespace {

using namespace helix;

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s <command> [...]\n"
        "\n"
        "commands:\n"
        "  run <spec.exp> [--csv FILE] [--json FILE] [--threads N]\n"
        "      execute an experiment spec ('-' as FILE = stdout)\n"
        "  plan <cluster> <model> [--planner NAME] [--budget SECONDS]\n"
        "       [--threads N] [--out FILE]\n"
        "      run a planner, write a 'placement v1' artifact\n"
        "  gen-cluster <preset> [--nodes N] [--seed S] [--out FILE]\n"
        "      generate a synthetic cluster, write a 'cluster v1' "
        "artifact\n"
        "  validate <spec.exp> [...]\n"
        "      parse + resolve specs, report line-numbered errors\n"
        "  list\n"
        "      dump registered clusters/models/planners/schedulers/"
        "scenarios\n"
        "\n"
        "every command accepts --help; --version prints '%s'\n"
        "see docs/FILE_FORMATS.md for the spec grammar,\n"
        "docs/PLANNERS.md for planner semantics, and\n"
        "docs/SCENARIOS.md for scenario semantics\n",
        argv0, HELIX_VERSION);
    return 2;
}

// --- Per-subcommand help ---------------------------------------------
// One normative synopsis per subcommand, printed on `<cmd> --help`.
// tests/test_cli.cpp asserts this text, so the binary and the docs
// cannot drift apart.

const char *const kRunHelp =
    "usage: helixctl run <spec.exp> [--csv FILE] [--json FILE]\n"
    "                    [--threads N]\n"
    "\n"
    "Execute a declarative 'experiment v1' sweep (see\n"
    "docs/FILE_FORMATS.md). With no output flag the spec's 'output'\n"
    "format goes to stdout after a summary table; '-' as FILE writes\n"
    "the emitter to stdout and suppresses the table.\n"
    "\n"
    "  --csv FILE      write results as CSV ('-' = stdout)\n"
    "  --json FILE     write results as JSON ('-' = stdout)\n"
    "  --threads N     worker threads (0 = hardware concurrency);\n"
    "                  overrides the spec's 'threads' directive and\n"
    "                  caps a portfolio planner's member race and a\n"
    "                  helix planner's search threads\n";

const char *const kPlanHelp =
    "usage: helixctl plan <cluster> <model> [--planner NAME]\n"
    "                     [--budget SECONDS] [--threads N]\n"
    "                     [--out FILE]\n"
    "\n"
    "Run a placement planner and write the chosen placement as a\n"
    "'placement v1' artifact. <cluster> is a registry name or a\n"
    "generated cluster 'gen:<preset>:<nodes>[:<seed>]'.\n"
    "\n"
    "  --planner NAME  planner registry name (default helix); for\n"
    "                  'portfolio[:a,b,...]' see docs/PLANNERS.md\n"
    "  --budget S      wall-clock budget for budgeted planners,\n"
    "                  0 to 86400 seconds (default 2)\n"
    "  --threads N     worker threads for a portfolio's member race\n"
    "                  (0 = one thread per member) or a helix\n"
    "                  planner's search (0 = up to four)\n"
    "  --out FILE      output path (default '-' = stdout)\n";

const char *const kGenClusterHelp =
    "usage: helixctl gen-cluster <preset> [--nodes N] [--seed S]\n"
    "                            [--out FILE]\n"
    "\n"
    "Generate a synthetic cluster and write it as a 'cluster v1'\n"
    "artifact. Generation is deterministic in (preset, nodes, seed);\n"
    "experiment specs can name the same cluster directly as\n"
    "'gen:<preset>:<nodes>[:<seed>]'. Presets (docs/FILE_FORMATS.md):\n"
    "homogeneous, two-tier, long-tail-heterogeneous, geo-distributed.\n"
    "\n"
    "  --nodes N       number of compute nodes (default 100)\n"
    "  --seed S        RNG seed for the randomized presets "
    "(default 42)\n"
    "  --out FILE      output path (default '-' = stdout)\n";

const char *const kValidateHelp =
    "usage: helixctl validate <spec.exp> [...]\n"
    "\n"
    "Parse and registry-resolve experiment specs without running\n"
    "anything. Errors are reported as '<path>:<line>: <message>';\n"
    "exit code 1 if any spec fails.\n";

const char *const kListHelp =
    "usage: helixctl list\n"
    "\n"
    "Dump every registry a spec can name: clusters, cluster\n"
    "generator presets, models, planners, schedulers, and scenario\n"
    "kinds with their options.\n";

/** True when any argument is --help/-h (printing @p text if so). */
bool
wantsHelp(int argc, char **argv, const char *text)
{
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--help") == 0 ||
            std::strcmp(argv[i], "-h") == 0) {
            std::fputs(text, stdout);
            return true;
        }
    }
    return false;
}

/** Load + parse + validate one spec file; nullopt after reporting. */
std::optional<io::ExperimentSpec>
loadSpec(const std::string &path)
{
    auto text = io::readFile(path);
    if (!text) {
        std::fprintf(stderr, "%s: cannot read file\n", path.c_str());
        return std::nullopt;
    }
    io::ParseError error;
    auto spec = io::experimentFromString(*text, error);
    if (!spec) {
        std::fprintf(stderr, "%s:%d: %s\n", path.c_str(), error.line,
                     error.message.c_str());
        return std::nullopt;
    }
    if (!exp::validateSpec(*spec, &error)) {
        std::fprintf(stderr, "%s:%d: %s\n", path.c_str(), error.line,
                     error.message.c_str());
        return std::nullopt;
    }
    return spec;
}

/** Write @p text to @p path, or to stdout when path is "-". */
bool
emit(const std::string &path, const std::string &text)
{
    if (path == "-") {
        std::fputs(text.c_str(), stdout);
        return true;
    }
    if (!io::writeFile(path, text)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
}

int
cmdRun(int argc, char **argv)
{
    if (wantsHelp(argc, argv, kRunHelp))
        return 0;
    std::string spec_path;
    std::string csv_path;
    std::string json_path;
    int threads = 0;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
            csv_path = argv[++i];
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            if (!io::parseInt(argv[++i], threads) || threads < 0) {
                std::fprintf(stderr,
                             "run: --threads needs a non-negative "
                             "integer, got '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "run: unknown flag %s\n", argv[i]);
            return 2;
        } else if (spec_path.empty()) {
            spec_path = argv[i];
        } else {
            std::fprintf(stderr, "run: extra argument %s\n", argv[i]);
            return 2;
        }
    }
    if (spec_path.empty()) {
        std::fprintf(stderr, "run: missing <spec.exp>\n");
        return 2;
    }

    auto spec = loadSpec(spec_path);
    if (!spec)
        return 1;

    exp::RunnerOptions options;
    options.numThreads = threads;
    io::ParseError error;
    auto results = exp::runSpec(*spec, &error, options);
    if (!results) {
        std::fprintf(stderr, "%s:%d: %s\n", spec_path.c_str(),
                     error.line, error.message.c_str());
        return 1;
    }

    bool quiet = csv_path == "-" || json_path == "-";
    if (!quiet) {
        std::printf("experiment '%s': %zu runs\n",
                    spec->name.c_str(), results->size());
        std::printf("%-52s %10s %12s %12s %10s %8s\n", "run",
                    "planned", "decode t/s", "p-lat p95", "completed",
                    "restart");
        for (const auto &result : *results) {
            std::printf(
                "%-52s %10.0f %12.1f %12.3f %10ld %8ld\n",
                result.label.c_str(), result.plannedThroughput,
                result.metrics.decodeThroughput,
                result.metrics.promptLatency.percentile(95),
                result.metrics.requestsCompleted,
                result.metrics.requestsRestarted);
        }
    }

    bool ok = true;
    if (!csv_path.empty())
        ok = emit(csv_path, exp::resultsToCsv(*results)) && ok;
    if (!json_path.empty())
        ok = emit(json_path, exp::resultsToJson(*results)) && ok;
    if (csv_path.empty() && json_path.empty()) {
        const std::string text = spec->output == "json"
                                     ? exp::resultsToJson(*results)
                                     : exp::resultsToCsv(*results);
        std::fputs(text.c_str(), stdout);
    }
    return ok ? 0 : 1;
}

int
cmdPlan(int argc, char **argv)
{
    if (wantsHelp(argc, argv, kPlanHelp))
        return 0;
    std::string cluster_name;
    std::string model_name;
    std::string planner_name = "helix";
    std::string out_path = "-";
    double budget_s = 2.0;
    int threads = 0;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--planner") == 0 && i + 1 < argc) {
            planner_name = argv[++i];
        } else if (std::strcmp(argv[i], "--budget") == 0 &&
                   i + 1 < argc) {
            if (!io::parseDouble(argv[++i], budget_s) ||
                budget_s < 0.0 || budget_s > core::kMaxPlannerBudgetS) {
                std::fprintf(stderr,
                             "plan: --budget needs a number of seconds "
                             "in [0, %.0f], got '%s'\n",
                             core::kMaxPlannerBudgetS, argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--threads") == 0 &&
                   i + 1 < argc) {
            if (!io::parseInt(argv[++i], threads) || threads < 0) {
                std::fprintf(stderr,
                             "plan: --threads needs a non-negative "
                             "integer, got '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--out") == 0 &&
                   i + 1 < argc) {
            out_path = argv[++i];
        } else if (argv[i][0] == '-' && std::strlen(argv[i]) > 1) {
            std::fprintf(stderr, "plan: unknown flag %s\n", argv[i]);
            return 2;
        } else if (cluster_name.empty()) {
            cluster_name = argv[i];
        } else if (model_name.empty()) {
            model_name = argv[i];
        } else {
            std::fprintf(stderr, "plan: extra argument %s\n",
                         argv[i]);
            return 2;
        }
    }
    if (cluster_name.empty() || model_name.empty()) {
        std::fprintf(stderr, "plan: need <cluster> <model>\n");
        return 2;
    }

    auto clus = exp::clusterByName(cluster_name);
    if (!clus) {
        std::fprintf(stderr, "unknown cluster '%s' (helixctl list)\n",
                     cluster_name.c_str());
        return 1;
    }
    auto model_spec = exp::modelByName(model_name);
    if (!model_spec) {
        std::fprintf(stderr, "unknown model '%s' (helixctl list)\n",
                     model_name.c_str());
        return 1;
    }
    auto planner = exp::plannerByName(planner_name, budget_s, threads);
    if (!planner) {
        std::fprintf(stderr, "unknown planner '%s' (helixctl list)\n",
                     planner_name.c_str());
        return 1;
    }

    Deployment deployment(*clus, *model_spec, *planner);
    std::fprintf(stderr,
                 "planned %s on %s with %s: %.0f tokens/s peak\n",
                 model_spec->name.c_str(), cluster_name.c_str(),
                 planner_name.c_str(),
                 deployment.plannedThroughput());
    if (const auto *helix_planner =
            dynamic_cast<const placement::HelixPlanner *>(planner.get())) {
        const placement::HelixPlannerReport &report =
            helix_planner->report();
        std::fprintf(stderr, "candidates: %ld evaluated, %ld solved",
                     report.candidatesEvaluated, report.candidatesSolved);
        if (report.chains > 0) {
            std::fprintf(stderr, " by %d chains, best from chain %d",
                         report.chains, report.winningChain);
        }
        std::fputc('\n', stderr);
    }
    return emit(out_path,
                io::placementToString(deployment.placement()))
               ? 0
               : 1;
}

int
cmdGenCluster(int argc, char **argv)
{
    if (wantsHelp(argc, argv, kGenClusterHelp))
        return 0;
    cluster::gen::GeneratorConfig config;
    config.preset.clear();
    std::string out_path = "-";
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
            if (!io::parseInt(argv[++i], config.numNodes) ||
                config.numNodes < 1) {
                std::fprintf(stderr,
                             "gen-cluster: --nodes needs a positive "
                             "integer, got '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--seed") == 0 &&
                   i + 1 < argc) {
            if (!io::parseU64(argv[++i], config.seed)) {
                std::fprintf(stderr,
                             "gen-cluster: --seed needs an unsigned "
                             "integer, got '%s'\n",
                             argv[i]);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--out") == 0 &&
                   i + 1 < argc) {
            out_path = argv[++i];
        } else if (argv[i][0] == '-' && std::strlen(argv[i]) > 1) {
            std::fprintf(stderr, "gen-cluster: unknown flag %s\n",
                         argv[i]);
            return 2;
        } else if (config.preset.empty()) {
            config.preset = argv[i];
        } else {
            std::fprintf(stderr, "gen-cluster: extra argument %s\n",
                         argv[i]);
            return 2;
        }
    }
    if (config.preset.empty()) {
        std::fprintf(stderr, "gen-cluster: missing <preset>\n");
        return 2;
    }

    auto clus = cluster::gen::generate(config);
    if (!clus) {
        std::fprintf(stderr,
                     "unknown generator preset '%s' (known: %s)\n",
                     config.preset.c_str(),
                     io::joinNames(cluster::gen::presetNames())
                         .c_str());
        return 1;
    }
    std::fprintf(stderr, "generated %s cluster (seed %llu): %s\n",
                 config.preset.c_str(),
                 static_cast<unsigned long long>(config.seed),
                 clus->summary().c_str());
    return emit(out_path, io::clusterToString(*clus)) ? 0 : 1;
}

int
cmdValidate(int argc, char **argv)
{
    if (wantsHelp(argc, argv, kValidateHelp))
        return 0;
    if (argc == 0) {
        std::fprintf(stderr, "validate: missing <spec.exp>\n");
        return 2;
    }
    int failures = 0;
    for (int i = 0; i < argc; ++i) {
        auto spec = loadSpec(argv[i]);
        if (!spec) {
            ++failures;
            continue;
        }
        size_t num_systems =
            spec->systems.empty()
                ? spec->planners.size() * spec->schedulers.size()
                : spec->systems.size();
        std::printf("%s: OK (%zu cluster(s) x %zu model(s) x %zu "
                    "system(s) x %zu scenario(s))\n",
                    argv[i], spec->clusters.size(),
                    spec->models.size(), num_systems,
                    spec->scenarios.size());
    }
    return failures == 0 ? 0 : 1;
}

int
cmdList()
{
    std::printf("clusters:\n");
    for (const std::string &name : exp::clusterNames()) {
        auto clus = exp::clusterByName(name);
        std::printf("  %-14s %s\n", name.c_str(),
                    clus->summary().c_str());
    }
    std::printf("cluster generators (gen:<preset>:<nodes>[:<seed>]):"
                "\n");
    for (const std::string &name : cluster::gen::presetNames())
        std::printf("  %s\n", name.c_str());
    std::printf("models:\n");
    for (const std::string &name : exp::modelNames()) {
        auto model_spec = exp::modelByName(name);
        std::printf("  %-14s %s (%d layers)\n", name.c_str(),
                    model_spec->name.c_str(), model_spec->numLayers);
    }
    std::printf("planners:\n");
    for (const std::string &name : exp::plannerNames())
        std::printf("  %s\n", name.c_str());
    std::printf("schedulers:\n");
    for (const std::string &name : exp::schedulerNames())
        std::printf("  %s\n", name.c_str());
    std::printf("scenarios:\n");
    for (const std::string &kind : io::scenarioKinds()) {
        std::string keys;
        for (const std::string &key : io::scenarioOptionKeys(kind)) {
            if (!keys.empty())
                keys += " ";
            keys += key + "=";
        }
        std::printf("  %-14s %s\n", kind.c_str(), keys.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    const char *cmd = argv[1];
    if (std::strcmp(cmd, "run") == 0)
        return cmdRun(argc - 2, argv + 2);
    if (std::strcmp(cmd, "plan") == 0)
        return cmdPlan(argc - 2, argv + 2);
    if (std::strcmp(cmd, "gen-cluster") == 0)
        return cmdGenCluster(argc - 2, argv + 2);
    if (std::strcmp(cmd, "validate") == 0)
        return cmdValidate(argc - 2, argv + 2);
    if (std::strcmp(cmd, "list") == 0) {
        if (wantsHelp(argc - 2, argv + 2, kListHelp))
            return 0;
        return cmdList();
    }
    if (std::strcmp(cmd, "--version") == 0 ||
        std::strcmp(cmd, "version") == 0) {
        std::printf("helixctl %s\n", HELIX_VERSION);
        return 0;
    }
    if (std::strcmp(cmd, "help") == 0 ||
        std::strcmp(cmd, "--help") == 0 ||
        std::strcmp(cmd, "-h") == 0) {
        usage(argv[0]);
        return 0;
    }
    std::fprintf(stderr, "unknown command '%s'\n", cmd);
    return usage(argv[0]);
}
