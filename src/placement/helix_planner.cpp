#include "placement/helix_planner.h"

#include <algorithm>
#include <cmath>
#include <limits>

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

bool
annealingAccepts(double value, double current, double temperature,
                 double u)
{
    return value > current || value > current + temperature * std::log(u);
}

FlowSearch::FlowSearch(const cluster::ClusterSpec &cluster,
                       const cluster::Profiler &profiler,
                       const HelixPlannerConfig &config)
    : clusterRef(cluster), profilerRef(profiler), cfg(config),
      numLayers(profiler.modelSpec().numLayers)
{
    if (cfg.usePruning) {
        filter = ConnectionFilter::pruneByBandwidth(cluster, kPruneDegree);
    }
    const int n = cluster.numNodes();
    capacity.reserve(static_cast<size_t>(n) * (numLayers + 1));
    for (int i = 0; i < n; ++i) {
        for (int count = 0; count <= numLayers; ++count) {
            capacity.push_back(
                profiler.decodeThroughput(cluster.node(i), count));
        }
    }
    capacityUnits.reserve(capacity.size());
    for (double tok_s : capacity)
        capacityUnits.push_back(flow::toUnits(tok_s));
}

size_t
FlowSearch::capacityIndex(int node, int count) const
{
    HELIX_ASSERT(node >= 0 && node < clusterRef.numNodes() &&
                 count >= 0 && count <= numLayers);
    return static_cast<size_t>(node) * (numLayers + 1) + count;
}

double
FlowSearch::evaluate(const ModelPlacement &placement) const
{
    PlacementGraph graph(clusterRef, profilerRef, placement,
                         filter ? &*filter : nullptr);
    return graph.maxThroughput();
}

flow::Units
FlowSearch::layerBound(const ModelPlacement &placement) const
{
    // Holder capacity entering at each layer's start and leaving past
    // its end: a running sum gives each layer's cut.
    const int n = clusterRef.numNodes();
    HELIX_ASSERT(placement.size() == static_cast<size_t>(n));
    std::vector<flow::Units> delta(static_cast<size_t>(numLayers) + 1, 0);
    for (int i = 0; i < n; ++i) {
        const NodePlacement &p = placement[i];
        if (p.count == 0)
            continue;
        HELIX_ASSERT(p.start >= 0 && p.end() <= numLayers);
        const flow::Units c = capacityUnits[capacityIndex(i, p.count)];
        delta[static_cast<size_t>(p.start)] += c;
        delta[static_cast<size_t>(p.end())] -= c;
    }
    flow::Units held = 0;
    flow::Units bound = std::numeric_limits<flow::Units>::max();
    for (int layer = 0; layer < numLayers; ++layer) {
        held += delta[static_cast<size_t>(layer)];
        bound = std::min(bound, held);
    }
    return bound;
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
            double t = capacity[capacityIndex(i, q.count)];
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
        ++report.candidatesSolved;
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
        // The test is monotone and the bound caps the max flow, so a
        // candidate whose bound fails it would fail it when solved; its
        // flow is then at most current_value, so it beats no incumbent.
        const double u = rng.nextDouble();
        bool accept = false;
        bool improved = false;
        if (annealingAccepts(flow::fromUnits(layerBound(candidate)),
                             current_value, temperature, u)) {
            const double incumbent = best_value;
            const double value = consider(candidate);
            accept = annealingAccepts(value, current_value, temperature, u);
            improved = value > incumbent;
            if (accept) {
                current = candidate;
                current_value = value;
            }
        } else {
            ++report.candidatesEvaluated;
        }
        if (improved) {
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
        std::optional<ConnectionFilter> filter;
        if (cfg.usePruning) {
            filter = ConnectionFilter::pruneByBandwidth(cluster,
                                                        kPruneDegree);
        }
        MilpFormulation formulation(cluster, profiler,
                                    filter ? &*filter : nullptr);
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
        if (result.status == milp::MilpStatus::Optimal ||
            result.status == milp::MilpStatus::Feasible) {
            ModelPlacement placement =
                formulation.extractPlacement(result.values);
            lastReport.usedExactMilp = true;
            lastReport.progress = result.progress;
            lastReport.bestThroughput = result.objective;
            lastReport.wallSeconds = timer.seconds();
            lastReport.candidatesEvaluated = result.nodesExplored;
            lastReport.candidatesSolved = result.nodesExplored;
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
