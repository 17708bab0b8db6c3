/**
 * @file
 * Helix's model-placement planner (Sec. 4.4-4.5).
 *
 * The paper's MILP (Tables 5/6) is solved as a search over the
 * placement variables (s_i, count_i): for fixed placement variables the
 * rest of the MILP is the max-flow LP of the placement graph, so each
 * candidate is scored with an exact preflow-push max flow on its full
 * placement graph. FlowSearch runs kChains chains of simulated
 * annealing, each finished by a bottleneck-directed climb, at every
 * cluster size. The MILP itself is a test oracle (src/oracle): tests
 * check that the search reaches its proven optimum.
 *
 * The planner ranks placements by one objective, the placement's max
 * flow, and reports it as HelixPlannerReport::bestThroughput:
 * PlacementGraph(cluster, profiler, placement).maxThroughput() of the
 * placement it returns. It uses the paper's speedups for a search:
 * heuristic warm starts (Petals/Swarm/SP placements) and early stop
 * at the compute-throughput upper bound.
 */

#ifndef HELIX_PLACEMENT_HELIX_PLANNER_H
#define HELIX_PLACEMENT_HELIX_PLANNER_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "flow/graph.h"
#include "flow/max_flow.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "util/random.h"
#include "util/timer.h"

namespace helix {
namespace placement {

/** Configuration for the Helix planner. */
struct HelixPlannerConfig
{
    /** Wall-clock budget for the optimization in seconds. */
    double timeBudgetSeconds = 10.0;
    /** Seed heuristic placements as warm starts (speedup 2). */
    bool useWarmStarts = true;
    /** RNG seed for the search engine. */
    uint64_t seed = 0x48454c4958ULL; // "HELIX"
};

/** One improvement of the planner's incumbent: seconds into the plan
 *  and the incumbent's max flow. The bound is always
 *  HelixPlannerReport::upperBound. */
struct ProgressSample
{
    double seconds = 0.0;
    double incumbent = 0.0;
};

/** Diagnostics from the most recent plan() call. */
struct HelixPlannerReport
{
    double bestThroughput = 0.0;
    double upperBound = 0.0;
    double wallSeconds = 0.0;
    /** Candidates considered: placements the flow search scored or
     *  rejected by FlowSearch::layerBound. */
    long candidatesEvaluated = 0;
    /** Candidates whose placement graph was built and solved. */
    long candidatesSolved = 0;
    /** Flow-search chains run, the workers they ran on
     *  (helix::taskWorkers), and the chain whose placement was
     *  returned: the best, ties to the lowest index. */
    int chains = 0;
    int threads = 0;
    int winningChain = 0;
    bool earlyStopped = false;
    /** Incumbent throughput over time (for Fig. 12-style plots). */
    std::vector<ProgressSample> progress;
};

/**
 * The annealer's acceptance test for one step: a candidate of max flow
 * @p value replaces the current state, of max flow @p current, when
 * value > current or value > current + temperature * ln(u), for the
 * step's uniform draw @p u in [0, 1). It is monotone in @p value, so a
 * candidate whose FlowSearch::layerBound fails it fails it on its max
 * flow too, and FlowSearch::run rejects it without a solve.
 */
[[nodiscard]] bool annealingAccepts(double value, double current,
                                    double temperature, double u);

/**
 * Placement search with the max-flow objective: kChains independent
 * chains, each simulated annealing and then a bottleneck-directed
 * climb on FlowSearch::layerBound. Exposed separately so tests can
 * drive its chains and moves one at a time.
 */
class FlowSearch
{
  public:
    /** Chains run() searches with, on up to as many workers. */
    static constexpr int kChains = 4;

    FlowSearch(const cluster::ClusterSpec &cluster,
               const cluster::Profiler &profiler,
               const HelixPlannerConfig &config);

    /**
     * Run the search until the config's time budget has passed on
     * @p timer (by default one started by this call). @p seeds are
     * evaluated first and the best one becomes every chain's starting
     * state. @p bound is the throughput upper bound
     * (Profiler::throughputUpperBound) that scales the annealing
     * temperature and the early stop. The chains run on
     * helix::runTasks with @p threads (0 = the host's cores), so on
     * min(threads, kChains) workers; the chains of one worker share
     * its time in turn. Each anneals for the first half of its time
     * and climbs for the rest; the first chain to reach the early stop
     * ends all.
     * @return the best placement found, ties to the lowest chain.
     */
    ModelPlacement run(const std::vector<ModelPlacement> &seeds,
                       double bound, HelixPlannerReport &report,
                       int threads = 0,
                       const WallTimer &timer = WallTimer());

    /** Max-flow throughput of one placement: the max flow of its
     *  full placement graph. */
    double evaluate(const ModelPlacement &placement) const;

    /**
     * Exact upper bound on evaluate(@p placement), in flow units: the
     * least, over layers, of the summed compute capacities of the
     * layer's holders. Every source-to-sink path passes through a
     * holder of each layer, so each layer's compute arcs form a cut;
     * a layer without holders bounds the flow to 0. O(nodes + layers).
     */
    [[nodiscard]] flow::Units layerBound(
        const ModelPlacement &placement) const;

    /**
     * Random structural mutation of a placement: the annealer's move
     * (resize, shift, re-seat over the weakest layer, or adopt another
     * node's interval).
     */
    void mutate(ModelPlacement &placement, Rng &rng) const;

    /**
     * One search chain: its random stream, its states and the storage
     * it reuses for every candidate, all made on construction, so a
     * chain allocates only when a candidate's graph outgrows every
     * graph it solved before.
     */
    struct Chain
    {
        /** A chain on @p search's cluster that starts from @p start,
         *  of max flow @p value; its graph is assigned @p start and
         *  solved once here, so that its storage, the solver's too,
         *  exists before the chain runs. */
        Chain(const FlowSearch &search, Rng stream,
              const ModelPlacement &start, double value);

        /** The solver refers to the chain's own graph. */
        Chain(const Chain &) = delete;
        Chain &operator=(const Chain &) = delete;

        Rng rng;
        /** The state moves start from: its max flow while annealing,
         *  its layer bound while climbing (the start's, at first). */
        ModelPlacement current;
        double currentValue = 0.0;
        flow::Units currentBound = 0;
        /** The best solved placement and its max flow. */
        ModelPlacement best;
        double bestValue = 0.0;
        /** Candidates considered and solved. */
        long evaluated = 0;
        long solved = 0;
        /** Improvements of best, at most kProgressSamples: a full
         *  list keeps its last sample current. */
        std::vector<ProgressSample> progress;

        // Per-candidate storage.
        ModelPlacement candidate;
        /** layerBound's difference array and per-layer sums. */
        std::vector<flow::Units> delta;
        std::vector<flow::Units> held;
        /** mutate's per-layer coverage in tok/s. */
        std::vector<double> coverage;
        /** The placement graph every solve rebuilds in place, and the
         *  solver storage every solve of it reuses. */
        PlacementGraph graph;
        std::optional<flow::PreflowPush> solver;
    };

    /**
     * One step of the bottleneck-directed climb: 2-4 nodes, one after
     * the other, move toward a least-covered layer of the candidate
     * (shift or grow a window to reach it, or trim a holder of it to
     * its side). The candidate replaces chain.current when its layer
     * bound does not fall below chain.currentBound, and is solved only
     * when that bound beats chain.bestValue; @p seconds stamps a
     * progress sample.
     * @return whether the candidate was accepted.
     */
    bool climb(Chain &chain, double seconds = 0.0) const;

  private:
    /** Index of (node, layer count) in the capacity tables. */
    [[nodiscard]] size_t capacityIndex(int node, int count) const;

    /** layerBound() in caller storage: @p delta of numLayers + 1
     *  entries, and @p held, which receives each layer's sum. */
    flow::Units layerBound(const ModelPlacement &placement,
                           std::vector<flow::Units> &delta,
                           std::vector<flow::Units> &held) const;
    /** mutate() in caller storage: @p coverage of numLayers entries. */
    void mutate(ModelPlacement &placement, Rng &rng,
                std::vector<double> &coverage) const;
    /** Solve @p placement for @p chain, which keeps it if it is the
     *  best so far, @p seconds into the search. */
    double solve(Chain &chain, const ModelPlacement &placement,
                 double seconds) const;
    /** Run @p chain from @p begin to @p end seconds on @p timer:
     *  anneal for the first half, then climb. */
    void runChain(Chain &chain, const WallTimer &timer, double begin,
                  double end, double bound, std::atomic<bool> &stop) const;

    const cluster::ClusterSpec &clusterRef;
    const cluster::Profiler &profilerRef;
    HelixPlannerConfig cfg;
    int numLayers = 0;
    /** Profiler::decodeThroughput of node i holding c layers, for
     *  c in [0, numLayers], at capacityIndex(i, c): the compute-arc
     *  capacities of every placement graph, in tok/s and in units. */
    std::vector<double> capacity;
    std::vector<flow::Units> capacityUnits;
    /** Profiler::maxLayers of each node, at least 1. */
    std::vector<int> maxLayers;
};

/**
 * The Helix planner: heuristic warm starts, then the flow search, with
 * early stop, at every cluster size.
 */
class HelixPlanner : public Planner
{
  public:
    /** @p threads: the flow search's threads (0 = the host's cores). */
    explicit HelixPlanner(HelixPlannerConfig config = {},
                          int threads = 0)
        : cfg(config), searchThreads(threads)
    {
    }

    std::string name() const override { return "helix"; }

    ModelPlacement plan(const cluster::ClusterSpec &cluster,
                        const cluster::Profiler &profiler) override;

    /** Diagnostics for the last plan() call. */
    const HelixPlannerReport &report() const { return lastReport; }

  private:
    HelixPlannerConfig cfg;
    int searchThreads;
    HelixPlannerReport lastReport;
};

} // namespace placement
} // namespace helix

#endif // HELIX_PLACEMENT_HELIX_PLANNER_H
