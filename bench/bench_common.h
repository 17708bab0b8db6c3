/**
 * @file
 * Shared helpers for the compiled benchmark harnesses (deep dives,
 * ablations and scaling studies). Each harness regenerates one table
 * or figure of the paper's evaluation and prints the corresponding
 * rows. The Fig. 6/7/8 system comparisons are spec files instead:
 * `helixctl run examples/fig6.exp` (and fig7, fig8).
 */

#ifndef HELIX_BENCH_BENCH_COMMON_H
#define HELIX_BENCH_BENCH_COMMON_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/helix.h"

namespace helix {
namespace bench {

/**
 * Experiment scale knobs: the paper's warmup/measure windows and
 * planner budget by default, or minimal windows with `--smoke` so
 * CTest can exercise every harness end-to-end in about a second.
 */
struct Scale
{
    bool smoke = false;
    double plannerBudgetS = 6.0;
    double offlineWarmupS = 120.0;
    double offlineMeasureS = 180.0;

    /** Parse the command line; `--smoke` is the only flag. */
    static Scale
    fromArgs(int argc, char **argv)
    {
        Scale scale;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--smoke") == 0) {
                scale.smoke = true;
                scale.plannerBudgetS = 0.05;
                scale.offlineWarmupS = 1.0;
                scale.offlineMeasureS = 3.0;
            } else {
                std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
                std::exit(2);
            }
        }
        return scale;
    }
};

/** One measured row of a throughput/latency comparison. */
struct SystemResult
{
    std::string system;
    double plannedThroughput = 0.0;
    sim::SimMetrics metrics;
};

/** Print the standard comparison header. */
inline void
printHeader(const char *title)
{
    std::printf("\n=== %s ===\n", title);
    std::printf("%-14s %10s %12s %12s %12s %12s %12s\n", "system",
                "planned", "decode t/s", "p-lat mean", "p-lat p95",
                "d-lat mean", "d-lat p95");
}

/** Print one comparison row. */
inline void
printRow(const SystemResult &row)
{
    std::printf("%-14s %10.0f %12.1f %12.2f %12.2f %12.3f %12.3f\n",
                row.system.c_str(), row.plannedThroughput,
                row.metrics.decodeThroughput,
                row.metrics.promptLatency.mean(),
                row.metrics.promptLatency.percentile(95),
                row.metrics.decodeLatency.mean(),
                row.metrics.decodeLatency.percentile(95));
}

/**
 * Print pairwise throughput ratios against the first (Helix) row;
 * `n/a` where the other system served nothing.
 */
inline void
printRatios(const std::vector<SystemResult> &rows)
{
    if (rows.empty())
        return;
    double helix = rows.front().metrics.decodeThroughput;
    for (size_t i = 1; i < rows.size(); ++i) {
        double other = rows[i].metrics.decodeThroughput;
        std::printf("helix / %-14s throughput ratio: ",
                    rows[i].system.c_str());
        if (other > 0)
            std::printf("%.2fx\n", helix / other);
        else
            std::printf("n/a\n");
    }
}

/** Offline run configuration at the given scale. */
inline RunConfig
offlineRun(const Scale &scale, uint64_t seed = 42)
{
    RunConfig run;
    run.simulation.warmupSeconds = scale.offlineWarmupS;
    run.simulation.measureSeconds = scale.offlineMeasureS;
    run.seed = seed;
    return run;
}

} // namespace bench
} // namespace helix

#endif // HELIX_BENCH_BENCH_COMMON_H
