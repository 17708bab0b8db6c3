#include "placement/helix_planner.h"

#include <algorithm>
#include <cmath>

#include "placement/milp_formulation.h"
#include "util/logging.h"
#include "util/timer.h"

namespace helix {
namespace placement {

namespace {

/** Outgoing connections each node keeps under pruning (the paper's
 *  average degree). */
constexpr int kPruneDegree = 12;

/** Both engines stop once within this fraction of the compute upper
 *  bound (speedup 3). */
constexpr double kEarlyStopFraction = 0.995;

} // namespace

FlowSearch::FlowSearch(const cluster::ClusterSpec &cluster,
                       const cluster::Profiler &profiler,
                       const HelixPlannerConfig &config)
    : clusterRef(cluster), profilerRef(profiler), cfg(config)
{
    if (cfg.usePruning) {
        filter = ConnectionFilter::pruneByBandwidth(cluster, kPruneDegree);
    }
}

double
FlowSearch::evaluate(const ModelPlacement &placement) const
{
    GraphBuildOptions opts;
    opts.allowPartialInference = cfg.allowPartialInference;
    opts.filter = filter ? &*filter : nullptr;
    PlacementGraph graph(clusterRef, profilerRef, placement, opts);
    return graph.maxThroughput();
}

void
FlowSearch::mutate(ModelPlacement &placement, Rng &rng) const
{
    const int n = clusterRef.numNodes();
    const int num_layers = profilerRef.modelSpec().numLayers;
    int node = static_cast<int>(rng.nextBounded(n));
    int max_layers =
        std::max(1, profilerRef.maxLayers(clusterRef.node(node)));
    NodePlacement &p = placement[node];
    if (p.count == 0)
        p = {0, 1};

    switch (rng.nextBounded(4)) {
      case 0: {
        // Resize by +-1 layer.
        int delta = rng.nextBounded(2) == 0 ? 1 : -1;
        p.count = std::clamp(p.count + delta, 1, max_layers);
        p.start = std::min(p.start, num_layers - p.count);
        break;
      }
      case 1: {
        // Shift the window.
        int delta = static_cast<int>(rng.nextInt(-4, 4));
        p.start = std::clamp(p.start + delta, 0,
                             num_layers - p.count);
        break;
      }
      case 2: {
        // Re-seat over the least-covered layer at full width.
        std::vector<double> coverage(num_layers, 0.0);
        for (int i = 0; i < n; ++i) {
            const NodePlacement &q = placement[i];
            if (i == node || q.count == 0)
                continue;
            double t = profilerRef.decodeThroughput(
                clusterRef.node(i), q.count);
            for (int l = q.start; l < q.end(); ++l)
                coverage[l] += t;
        }
        int weakest = 0;
        for (int l = 1; l < num_layers; ++l) {
            if (coverage[l] < coverage[weakest])
                weakest = l;
        }
        p.count = std::min(max_layers, num_layers);
        p.start = std::clamp(weakest - p.count / 2, 0,
                             num_layers - p.count);
        break;
      }
      default: {
        // Adopt another node's interval, clamped to our VRAM.
        int other = static_cast<int>(rng.nextBounded(n));
        const NodePlacement &q = placement[other];
        if (q.count > 0) {
            p.count = std::min(q.count, max_layers);
            p.start = std::min(q.start, num_layers - p.count);
        }
        break;
      }
    }
}

ModelPlacement
FlowSearch::run(const std::vector<ModelPlacement> &seeds, double bound,
                HelixPlannerReport &report)
{
    const WallTimer timer;
    Rng rng(cfg.seed);

    const int n = clusterRef.numNodes();
    const int num_layers = profilerRef.modelSpec().numLayers;
    report.upperBound = bound;

    ModelPlacement best;
    double best_value = -1.0;
    auto consider = [&](const ModelPlacement &candidate) {
        double value = evaluate(candidate);
        ++report.candidatesEvaluated;
        if (value > best_value) {
            best_value = value;
            best = candidate;
            report.progress.push_back(
                {timer.seconds(), best_value, bound});
        }
        return value;
    };

    for (const auto &seed : seeds) {
        if (static_cast<int>(seed.size()) != clusterRef.numNodes())
            continue;
        // The search space honors the half-VRAM rule (the MILP's
        // b_i^j only reach k_i); clamp seeds that pack harder (SP).
        ModelPlacement clamped = seed;
        for (int i = 0; i < clusterRef.numNodes(); ++i) {
            int soft = profilerRef.maxLayers(clusterRef.node(i));
            if (clamped[i].count > soft)
                clamped[i].count = soft;
        }
        consider(clamped);
    }
    if (best_value < 0.0) {
        // Cold start (no heuristic seeds): give every node its full
        // half-VRAM window at staggered offsets so the model is
        // covered, but without any load balancing — the "default
        // values" baseline of the warm-start ablation (Fig. 11b).
        ModelPlacement cold;
        cold.nodes.resize(n);
        int at = 0;
        for (int i = 0; i < n; ++i) {
            int k = std::max(
                1, profilerRef.maxLayers(clusterRef.node(i)));
            int first = std::min(at % num_layers, num_layers - k);
            cold[i] = {std::max(first, 0), std::min(k, num_layers)};
            at += k;
        }
        consider(cold);
    }

    // Simulated annealing from the best seed.
    ModelPlacement current = best;
    double current_value = best_value;
    double t0 = std::max(bound * 0.05, 1e-6);
    double t_end = t0 * 1e-3;
    long stagnation = 0;
    while (timer.seconds() < cfg.timeBudgetSeconds) {
        if (best_value >= kEarlyStopFraction * bound) {
            report.earlyStopped = true;
            break;
        }
        double progress_frac =
            timer.seconds() / cfg.timeBudgetSeconds;
        double temperature =
            t0 * std::pow(t_end / t0, progress_frac);
        ModelPlacement candidate = current;
        // Apply 1-3 mutations per step.
        int num_mutations = 1 + static_cast<int>(rng.nextBounded(3));
        for (int k = 0; k < num_mutations; ++k)
            mutate(candidate, rng);
        const double incumbent = best_value;
        double value = consider(candidate);
        bool accept =
            value > current_value ||
            rng.nextDouble() <
                std::exp((value - current_value) / temperature);
        if (accept) {
            current = candidate;
            current_value = value;
        }
        if (value > incumbent) {
            stagnation = 0;
        } else if (++stagnation > 2000L * n / 10) {
            // Restart from the incumbent.
            current = best;
            current_value = best_value;
            stagnation = 0;
        }
    }

    report.bestThroughput = best_value;
    report.wallSeconds = timer.seconds();
    return best;
}

ModelPlacement
HelixPlanner::plan(const cluster::ClusterSpec &cluster,
                   const cluster::Profiler &profiler)
{
    const WallTimer timer;
    lastReport = HelixPlannerReport{};
    lastReport.upperBound = profiler.throughputUpperBound(cluster);

    // Heuristic warm starts (Sec. 4.5 speedup 2).
    std::vector<ModelPlacement> seeds;
    if (cfg.useWarmStarts) {
        SwarmPlanner swarm;
        PetalsPlanner petals;
        SeparatePipelinesPlanner sp(false);
        SeparatePipelinesPlanner sp_plus(true);
        seeds.push_back(swarm.plan(cluster, profiler));
        seeds.push_back(petals.plan(cluster, profiler));
        seeds.push_back(sp.plan(cluster, profiler));
        seeds.push_back(sp_plus.plan(cluster, profiler));
    }

    if (cluster.numNodes() <= cfg.exactMilpNodeLimit) {
        // Exact MILP path (Tables 5/6 + branch-and-bound).
        lastReport.usedExactMilp = true;
        std::optional<ConnectionFilter> filter;
        GraphBuildOptions build;
        build.allowPartialInference = cfg.allowPartialInference;
        if (cfg.usePruning) {
            filter = ConnectionFilter::pruneByBandwidth(cluster,
                                                        kPruneDegree);
            build.filter = &*filter;
        }
        MilpFormulation formulation(cluster, profiler, build);
        milp::BnbConfig bnb;
        bnb.timeLimitSeconds = cfg.timeBudgetSeconds;
        bnb.objectiveUpperBound = lastReport.upperBound;
        bnb.earlyStopFraction = kEarlyStopFraction;
        bnb.recordProgress = true;
        for (const auto &seed : seeds)
            bnb.warmStarts.push_back(formulation.encodePlacement(seed));
        milp::BranchAndBound solver;
        milp::MilpResult result =
            solver.solve(formulation.problem(), bnb);
        lastReport.progress = result.progress;
        if (result.status == milp::MilpStatus::Optimal ||
            result.status == milp::MilpStatus::Feasible) {
            ModelPlacement placement =
                formulation.extractPlacement(result.values);
            lastReport.bestThroughput = result.objective;
            lastReport.wallSeconds = timer.seconds();
            lastReport.candidatesEvaluated = result.nodesExplored;
            return placement;
        }
        HELIX_WARN("exact MILP found no solution (%s); "
                   "falling back to flow search",
                   milp::toString(result.status));
    }

    FlowSearch search(cluster, profiler, cfg);
    ModelPlacement placement =
        search.run(seeds, lastReport.upperBound, lastReport);
    lastReport.wallSeconds = timer.seconds();
    return placement;
}

} // namespace placement
} // namespace helix
