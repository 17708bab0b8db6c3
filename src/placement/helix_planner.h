/**
 * @file
 * Helix's model-placement planner (Sec. 4.4-4.5).
 *
 * Two cooperating engines implement the paper's MILP-based search:
 *
 * 1. Exact MILP — the Tables 5/6 formulation solved with our
 *    branch-and-bound (src/milp). Exact but only tractable for small
 *    clusters; used for the planner-quality experiments (Fig. 12,
 *    Table 8) and correctness tests against brute force.
 *
 * 2. Flow-guided search — branch-and-bound / simulated annealing over
 *    the placement variables (s_i, count_i) directly, evaluating each
 *    candidate with an exact preflow-push max-flow on the placement
 *    graph. Mathematically this explores the same solution space (for
 *    fixed integer placement variables the remaining MILP reduces to
 *    the max-flow LP), but scales to the paper's 24-42-node clusters
 *    without a commercial solver.
 *
 * Both engines rank placements by one objective, the placement's max
 * flow (the paper's MILP objective), and report it as
 * HelixPlannerReport::bestThroughput; the portfolio's
 * flowThroughputBound scores the same quantity. Both use the paper's
 * speedups: heuristic warm starts (Petals/Swarm/SP placements),
 * optional cluster pruning, and early stop at the compute-throughput
 * upper bound.
 */

#ifndef HELIX_PLACEMENT_HELIX_PLANNER_H
#define HELIX_PLACEMENT_HELIX_PLANNER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "milp/branch_and_bound.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "util/random.h"

namespace helix {
namespace placement {

/** Configuration for the Helix planner. */
struct HelixPlannerConfig
{
    /** Wall-clock budget for the optimization in seconds. */
    double timeBudgetSeconds = 10.0;
    /** Allow overlapping placements with partial inference. */
    bool allowPartialInference = true;
    /** Enable cluster pruning (Sec. 4.5 speedup 1): each node keeps
     *  its 12 fastest outgoing connections. */
    bool usePruning = false;
    /** Seed heuristic placements as warm starts (speedup 2). */
    bool useWarmStarts = true;
    /**
     * Use the exact MILP when the cluster has at most this many
     * nodes; larger clusters use the flow-guided search.
     */
    int exactMilpNodeLimit = 6;
    /** RNG seed for the search engine. */
    uint64_t seed = 0x48454c4958ULL; // "HELIX"
};

/** Diagnostics from the most recent plan() call. */
struct HelixPlannerReport
{
    double bestThroughput = 0.0;
    double upperBound = 0.0;
    double wallSeconds = 0.0;
    long candidatesEvaluated = 0;
    bool usedExactMilp = false;
    bool earlyStopped = false;
    /** Incumbent throughput over time (for Fig. 12-style plots). */
    std::vector<milp::ProgressSample> progress;
};

/**
 * Simulated-annealing placement search with the max-flow objective.
 * Exposed separately so ablation benches can time it against the
 * exact MILP.
 */
class FlowSearch
{
  public:
    FlowSearch(const cluster::ClusterSpec &cluster,
               const cluster::Profiler &profiler,
               const HelixPlannerConfig &config);

    /**
     * Run the search. @p seeds are evaluated first and the best one
     * becomes the starting state. @p bound is the throughput upper
     * bound (Profiler::throughputUpperBound) that scales the annealing
     * temperature and the early stop.
     * @return the best placement found.
     */
    ModelPlacement run(const std::vector<ModelPlacement> &seeds,
                       double bound, HelixPlannerReport &report);

    /** Max-flow throughput of one placement under current options. */
    double evaluate(const ModelPlacement &placement) const;

    /**
     * Random structural mutation of a placement: the annealer's move
     * (resize, shift, re-seat over the weakest layer, or adopt another
     * node's interval).
     */
    void mutate(ModelPlacement &placement, Rng &rng) const;

  private:
    const cluster::ClusterSpec &clusterRef;
    const cluster::Profiler &profilerRef;
    HelixPlannerConfig cfg;
    std::optional<ConnectionFilter> filter;
};

/**
 * The Helix planner: heuristic warm starts, then exact MILP (small
 * clusters) or flow-guided search (large clusters), with early stop.
 */
class HelixPlanner : public Planner
{
  public:
    explicit HelixPlanner(HelixPlannerConfig config = {})
        : cfg(config)
    {
    }

    std::string name() const override { return "helix"; }

    ModelPlacement plan(const cluster::ClusterSpec &cluster,
                        const cluster::Profiler &profiler) override;

    /** Diagnostics for the last plan() call. */
    const HelixPlannerReport &report() const { return lastReport; }

  private:
    HelixPlannerConfig cfg;
    HelixPlannerReport lastReport;
};

} // namespace placement
} // namespace helix

#endif // HELIX_PLACEMENT_HELIX_PLANNER_H
