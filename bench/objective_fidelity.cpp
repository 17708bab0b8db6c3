/**
 * @file
 * Objective fidelity: does the planner's objective rank placements the
 * way the simulator serves them? The planner only ever compares
 * candidates, so what matters is the ranking, not the absolute value.
 *
 * For each setup a fixed candidate set is built without any planner
 * budget: the Swarm, Petals, SP and SP+ placements, each followed by a
 * chain of the annealer's own moves (FlowSearch::mutate, 1-3 per step,
 * 30 in all) under a fixed Rng. Every candidate is scored by the
 * planner's objective, its max flow (FlowSearch::evaluate), and served
 * by the Helix scheduler offline, at 3 x the best heuristic
 * placement's max flow / 232 requests/s (the mean output length), 60 s
 * warmup, 180 s measured. Per setup and trace seed the bench prints:
 *  - Kendall tau-b between objective and served decode tok/s over all
 *    candidates;
 *  - neighbour agreement: over consecutive candidates of one chain
 *    (1-3 moves apart, the choice the annealer actually makes) whose
 *    served throughput differs, how often the objective is strictly
 *    higher on the better-served one.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.h"

namespace {

using namespace helix;
using namespace helix::bench;

/** Moves in each candidate chain (per heuristic seed). */
constexpr int kChainMoves = 30;
/** Rng seed of the candidate chains. */
constexpr uint64_t kCandidateSeed = 11;
/** Trace seeds each candidate is served at. */
constexpr uint64_t kTraceSeeds[] = {43, 7};

struct Setup
{
    const char *name;
    cluster::ClusterSpec cluster;
    model::TransformerSpec model;
};

int
sign(double value)
{
    return (value > 0.0) - (value < 0.0);
}

/** Kendall tau-b of @p x against @p y (0 when either is constant). */
double
kendallTau(const std::vector<double> &x, const std::vector<double> &y)
{
    long concordant = 0, discordant = 0, only_x = 0, only_y = 0;
    for (size_t i = 0; i < x.size(); ++i) {
        for (size_t j = i + 1; j < x.size(); ++j) {
            int dx = sign(x[i] - x[j]);
            int dy = sign(y[i] - y[j]);
            if (dx == 0 && dy == 0)
                continue;
            if (dy == 0)
                ++only_x;
            else if (dx == 0)
                ++only_y;
            else if (dx == dy)
                ++concordant;
            else
                ++discordant;
        }
    }
    double ties_free = static_cast<double>(concordant + discordant);
    double denom = std::sqrt((ties_free + static_cast<double>(only_x)) *
                             (ties_free + static_cast<double>(only_y)));
    return denom > 0.0
               ? static_cast<double>(concordant - discordant) / denom
               : 0.0;
}

void
runSetup(const Setup &setup, const Scale &scale, int chain_moves)
{
    cluster::Profiler profiler(setup.model);
    placement::SwarmPlanner swarm;
    placement::PetalsPlanner petals;
    placement::SeparatePipelinesPlanner sp(false);
    placement::SeparatePipelinesPlanner sp_plus(true);
    placement::Planner *heuristics[] = {&swarm, &petals, &sp, &sp_plus};

    placement::FlowSearch search(setup.cluster, profiler, {});
    Rng rng(kCandidateSeed);
    std::vector<placement::ModelPlacement> candidates;
    std::vector<std::pair<size_t, size_t>> neighbours;
    double best_seed_flow = 0.0;
    for (placement::Planner *heuristic : heuristics) {
        placement::ModelPlacement current =
            heuristic->plan(setup.cluster, profiler);
        best_seed_flow = std::max(best_seed_flow, search.evaluate(current));
        candidates.push_back(current);
        for (int moves = 0; moves < chain_moves;) {
            int step = 1 + static_cast<int>(rng.nextBounded(3));
            for (int k = 0; k < step; ++k)
                search.mutate(current, rng);
            moves += step;
            neighbours.emplace_back(candidates.size() - 1,
                                    candidates.size());
            candidates.push_back(current);
        }
    }

    std::vector<double> score;
    for (const auto &candidate : candidates)
        score.push_back(search.evaluate(candidate));

    Deployment deployment(setup.cluster, setup.model, swarm);
    for (uint64_t trace_seed : kTraceSeeds) {
        // One arrival rate for every candidate: 3 x the best heuristic
        // placement's max flow, in requests of the mean output length.
        RunConfig run;
        run.requestRate = 3.0 * best_seed_flow / 232.0;
        run.seed = trace_seed;
        run.simulation.warmupSeconds = std::min(60.0, scale.offlineWarmupS);
        run.simulation.measureSeconds = scale.offlineMeasureS;
        std::vector<double> served;
        for (const auto &candidate : candidates) {
            deployment.usePlacement(candidate);
            auto scheduler =
                makeScheduler(deployment, SchedulerKind::Helix);
            served.push_back(
                runExperiment(deployment, *scheduler, run)
                    .decodeThroughput);
        }
        int pairs = 0, agree = 0;
        for (const auto &[a, b] : neighbours) {
            int ds = sign(served[a] - served[b]);
            if (ds == 0)
                continue;
            ++pairs;
            agree += sign(score[a] - score[b]) == ds;
        }
        std::printf("%-20s %5llu %6zu %7.3f %6d/%d\n", setup.name,
                    static_cast<unsigned long long>(trace_seed),
                    candidates.size(), kendallTau(score, served), agree,
                    pairs);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Scale scale = Scale::fromArgs(argc, argv);
    const Setup setups[] = {
        {"hetero42/llama70b", cluster::setups::highHeterogeneity42(),
         model::catalog::llama70b()},
        {"geo24/llama30b", cluster::setups::geoDistributed24(),
         model::catalog::llama30b()},
        {"single24/llama30b", cluster::setups::singleCluster24(),
         model::catalog::llama30b()},
    };
    std::printf("=== Objective fidelity: max-flow ranking vs served "
                "decode tok/s (Helix scheduler, offline) ===\n");
    std::printf("%-20s %5s %6s %7s %s\n", "setup", "seed", "cands", "tau",
                "neighbours agree");
    // The smoke tier serves a 2-move chain per heuristic seed.
    for (const Setup &setup : setups)
        runSetup(setup, scale, scale.smoke ? 2 : kChainMoves);
    return 0;
}
