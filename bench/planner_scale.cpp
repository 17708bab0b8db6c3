/**
 * @file
 * Planner scalability: the time-budgeted planner portfolio on
 * synthetic clusters far beyond the paper's 10-42-node setups.
 *
 * For each cluster size the harness generates a
 * long-tail-heterogeneous cluster (cluster::gen), runs the full
 * planner portfolio under the tier's wall-clock budget, and prints
 * the portfolio's per-planner report: each member's wall time, the
 * max-flow throughput bound of its placement, and feasibility. The
 * chosen row is the deterministic argmax the portfolio returns.
 *
 * Two properties are checked programmatically at the full tier
 * (sizes 100/300/1000; the --smoke tier only prints — its 50 ms
 * budget is smaller than fixed thread-spawn overheads):
 *
 *   1. budget: the whole portfolio finishes within the configured
 *      budget plus 5% slack, even at 1000 nodes;
 *   2. quality: the chosen placement's flow bound is >= every
 *      member's bound within the same budget (the argmax guarantee,
 *      re-verified against the report).
 *
 * Exit code 1 if either check fails.
 */

#include "bench_common.h"
#include "cluster/generator.h"
#include "exp/experiment.h"
#include "placement/portfolio.h"
#include "util/logging.h"

namespace {

using namespace helix;

/** One portfolio race at @p num_nodes; returns false on a violation. */
bool
raceAtSize(int num_nodes, double budget_s, bool enforce)
{
    cluster::gen::GeneratorConfig config;
    config.preset = "long-tail-heterogeneous";
    config.numNodes = num_nodes;
    config.seed = 7;
    auto clus = cluster::gen::generate(config);
    HELIX_ASSERT(clus.has_value());
    auto model_spec = exp::modelByName("llama30b");
    HELIX_ASSERT(model_spec.has_value());
    cluster::Profiler profiler(*model_spec);

    auto planner = exp::plannerByName("portfolio", budget_s);
    auto *portfolio =
        dynamic_cast<placement::PortfolioPlanner *>(planner.get());
    HELIX_ASSERT(portfolio != nullptr);
    placement::ModelPlacement chosen =
        portfolio->plan(*clus, profiler);
    const placement::PortfolioReport &report = portfolio->report();

    std::printf("\n=== portfolio on %s (%d nodes, budget %.2f s) ===\n",
                config.preset.c_str(), num_nodes, budget_s);
    std::printf("%-18s %10s %14s %9s\n", "planner", "wall s",
                "flow bound", "feasible");
    for (const placement::PortfolioEntry &entry : report.entries) {
        std::printf("%-18s %10.3f %14.1f %9s\n",
                    entry.planner.c_str(), entry.wallSeconds,
                    entry.flowBound, entry.feasible ? "yes" : "no");
    }
    HELIX_ASSERT(report.bestIndex >= 0);
    const placement::PortfolioEntry &best =
        report.entries[report.bestIndex];
    std::printf("chosen: %s (bound %.1f tok/s) in %.3f s total\n",
                best.planner.c_str(), best.flowBound,
                report.wallSeconds);

    bool ok = true;
    double limit = budget_s * 1.05;
    if (enforce && report.wallSeconds > limit) {
        std::printf("FAIL: portfolio wall %.3f s exceeds budget "
                    "%.2f s + 5%% (%.3f s)\n",
                    report.wallSeconds, budget_s, limit);
        ok = false;
    }
    double chosen_bound = placement::flowThroughputBound(
        *clus, profiler, chosen);
    for (const placement::PortfolioEntry &entry : report.entries) {
        if (entry.feasible && chosen_bound < entry.flowBound) {
            std::printf("FAIL: chosen bound %.1f < %s's bound %.1f "
                        "within the same budget\n",
                        chosen_bound, entry.planner.c_str(),
                        entry.flowBound);
            ok = false;
        }
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Scale scale = bench::Scale::fromArgs(argc, argv);
    std::vector<int> sizes = scale.smoke
                                 ? std::vector<int>{40}
                                 : std::vector<int>{100, 300, 1000};
    bool ok = true;
    for (int size : sizes)
        ok = raceAtSize(size, scale.plannerBudgetS, !scale.smoke) && ok;
    return ok ? 0 : 1;
}
