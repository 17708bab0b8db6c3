#include "placement/helix_planner.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "util/logging.h"
#include "util/tasks.h"
#include "util/timer.h"

namespace helix {
namespace placement {

namespace {

/** The search stops once within this fraction of the compute upper
 *  bound (speedup 3). */
constexpr double kEarlyStopFraction = 0.995;

/** Share of a chain's time spent annealing; the climb takes the rest. */
constexpr double kAnnealShare = 0.5;

/** Progress samples a chain keeps (its storage is made up front). */
constexpr size_t kProgressSamples = 64;

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
    maxLayers.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
        maxLayers.push_back(std::max(1, profiler.maxLayers(cluster.node(i))));
}

FlowSearch::Chain::Chain(const FlowSearch &search, Rng stream,
                         const ModelPlacement &start, double value)
    : rng(stream), current(start), currentValue(value), best(start),
      bestValue(value), candidate(start),
      delta(static_cast<size_t>(search.numLayers) + 1),
      held(static_cast<size_t>(search.numLayers)),
      coverage(static_cast<size_t>(search.numLayers)),
      graph(search.clusterRef, search.profilerRef,
            ModelPlacement{std::vector<NodePlacement>(start.size())})
{
    currentBound = search.layerBound(start, delta, held);
    progress.reserve(kProgressSamples);
    graph.assign(search.clusterRef, search.profilerRef, start);
    static_cast<void>(graph.maxThroughput(solver));
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
    PlacementGraph graph(clusterRef, profilerRef, placement);
    return graph.maxThroughput();
}

flow::Units
FlowSearch::layerBound(const ModelPlacement &placement) const
{
    std::vector<flow::Units> delta(static_cast<size_t>(numLayers) + 1);
    std::vector<flow::Units> held(static_cast<size_t>(numLayers));
    return layerBound(placement, delta, held);
}

flow::Units
FlowSearch::layerBound(const ModelPlacement &placement,
                       std::vector<flow::Units> &delta,
                       std::vector<flow::Units> &held) const
{
    // Holder capacity entering at each layer's start and leaving past
    // its end: a running sum gives each layer's cut.
    const int n = clusterRef.numNodes();
    HELIX_ASSERT(placement.size() == static_cast<size_t>(n));
    std::fill(delta.begin(), delta.end(), 0);
    for (int i = 0; i < n; ++i) {
        const NodePlacement &p = placement[i];
        if (p.count == 0)
            continue;
        HELIX_ASSERT(p.start >= 0 && p.end() <= numLayers);
        const flow::Units c = capacityUnits[capacityIndex(i, p.count)];
        delta[static_cast<size_t>(p.start)] += c;
        delta[static_cast<size_t>(p.end())] -= c;
    }
    flow::Units sum = 0;
    flow::Units bound = std::numeric_limits<flow::Units>::max();
    for (int layer = 0; layer < numLayers; ++layer) {
        sum += delta[static_cast<size_t>(layer)];
        held[static_cast<size_t>(layer)] = sum;
        bound = std::min(bound, sum);
    }
    return bound;
}

void
FlowSearch::mutate(ModelPlacement &placement, Rng &rng) const
{
    std::vector<double> coverage(static_cast<size_t>(numLayers));
    mutate(placement, rng, coverage);
}

void
FlowSearch::mutate(ModelPlacement &placement, Rng &rng,
                   std::vector<double> &coverage) const
{
    const int n = clusterRef.numNodes();
    const int num_layers = profilerRef.modelSpec().numLayers;
    int node = static_cast<int>(rng.nextBounded(n));
    const int max_layers = maxLayers[static_cast<size_t>(node)];
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
        std::fill(coverage.begin(), coverage.end(), 0.0);
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

double
FlowSearch::solve(Chain &chain, const ModelPlacement &placement,
                  double seconds) const
{
    chain.graph.assign(clusterRef, profilerRef, placement);
    const double value = chain.graph.maxThroughput(chain.solver);
    ++chain.evaluated;
    ++chain.solved;
    if (value > chain.bestValue) {
        chain.bestValue = value;
        chain.best = placement;
        const ProgressSample sample{seconds, value};
        if (chain.progress.size() < kProgressSamples)
            chain.progress.push_back(sample);
        else
            chain.progress.back() = sample;
    }
    return value;
}

bool
FlowSearch::climb(Chain &chain, double seconds) const
{
    const int n = clusterRef.numNodes();
    Rng &rng = chain.rng;
    ModelPlacement &candidate = chain.candidate;
    candidate = chain.current;
    const int moves = 2 + static_cast<int>(rng.nextBounded(3));
    for (int move = 0; move < moves; ++move) {
        // Focus on a least-covered layer, ties drawn at random.
        const flow::Units least =
            layerBound(candidate, chain.delta, chain.held);
        const auto ties = static_cast<uint64_t>(
            std::count(chain.held.begin(), chain.held.end(), least));
        uint64_t pick = rng.nextBounded(ties);
        int focus = 0;
        while (chain.held[static_cast<size_t>(focus)] != least || pick > 0) {
            pick -= chain.held[static_cast<size_t>(focus)] == least;
            ++focus;
        }

        const uint64_t kind = rng.nextBounded(4);
        if (kind == 3) {
            // Trim a multi-layer holder of the focus by its layer
            // farthest from it, raising its per-layer throughput.
            int holders = 0;
            for (int i = 0; i < n; ++i) {
                const NodePlacement &p = candidate[i];
                holders += p.count > 1 && p.start <= focus && focus < p.end();
            }
            if (holders == 0)
                continue;
            auto nth = static_cast<int>(rng.nextBounded(holders));
            for (int i = 0; i < n; ++i) {
                NodePlacement &p = candidate[i];
                if (p.count > 1 && p.start <= focus && focus < p.end() &&
                    nth-- == 0) {
                    if (focus - p.start > p.end() - 1 - focus)
                        ++p.start;
                    --p.count;
                    break;
                }
            }
            continue;
        }
        // The nearer of two nodes that miss the focus moves to reach
        // it: it grows to it (kind 2) when its VRAM allows, else its
        // window shifts just far enough.
        auto distance = [&](int i) {
            const NodePlacement &p = candidate[i];
            if (p.count == 0)
                return numLayers;
            if (focus < p.start)
                return p.start - focus;
            return focus < p.end() ? -1 : focus - p.end() + 1;
        };
        int node = static_cast<int>(rng.nextBounded(n));
        const int other = static_cast<int>(rng.nextBounded(n));
        if (distance(node) < 0 ||
            (distance(other) >= 0 && distance(other) < distance(node)))
            node = other;
        const int gap = distance(node);
        if (gap < 0)
            continue;
        NodePlacement &p = candidate[node];
        const int most = std::min(maxLayers[static_cast<size_t>(node)],
                                  numLayers);
        if (p.count == 0) {
            p.count = most;
            p.start = std::clamp(focus - p.count / 2, 0, numLayers - p.count);
        } else if (kind == 2 && p.count + gap <= most) {
            if (focus < p.start)
                p.start = focus;
            p.count += gap;
        } else {
            p.start = std::clamp(focus < p.start ? focus
                                                 : focus - p.count + 1,
                                 0, numLayers - p.count);
        }
    }

    const flow::Units bound =
        layerBound(candidate, chain.delta, chain.held);
    const bool accepted = bound >= chain.currentBound;
    if (accepted) {
        std::swap(chain.current, candidate);
        chain.currentBound = bound;
    }
    if (accepted && flow::fromUnits(bound) > chain.bestValue)
        solve(chain, chain.current, seconds);
    else
        ++chain.evaluated;
    return accepted;
}

void
FlowSearch::runChain(Chain &chain, const WallTimer &timer, double begin,
                     double end, double bound,
                     std::atomic<bool> &stop) const
{
    const int n = clusterRef.numNodes();
    const double anneal_end = begin + kAnnealShare * (end - begin);
    const double t0 = std::max(bound * 0.05, 1e-6);
    const double t_end = t0 * 1e-3;
    auto stopping = [&] {
        if (chain.bestValue >= kEarlyStopFraction * bound)
            stop = true;
        return stop.load(std::memory_order_relaxed);
    };

    // Neither phase starts a step it expects to end past the phase's
    // end: the chain keeps the longest step it has taken.
    double now = timer.seconds();
    double longest = 0.0;
    auto next = [&] {
        const double then = now;
        now = timer.seconds();
        longest = std::max(longest, now - then);
    };

    // Simulated annealing from the start state.
    long stagnation = 0;
    for (; now + longest < anneal_end; next()) {
        if (stopping())
            return;
        const double progress_frac = (now - begin) / (anneal_end - begin);
        const double temperature = t0 * std::pow(t_end / t0, progress_frac);
        chain.candidate = chain.current;
        // Apply 1-3 mutations per step.
        const int num_mutations =
            1 + static_cast<int>(chain.rng.nextBounded(3));
        for (int k = 0; k < num_mutations; ++k)
            mutate(chain.candidate, chain.rng, chain.coverage);
        // The test is monotone and the bound caps the max flow, so a
        // candidate whose bound fails it would fail it when solved; its
        // flow is then at most currentValue, so it beats no incumbent.
        const double u = chain.rng.nextDouble();
        bool improved = false;
        if (annealingAccepts(
                flow::fromUnits(layerBound(chain.candidate, chain.delta,
                                           chain.held)),
                chain.currentValue, temperature, u)) {
            const double incumbent = chain.bestValue;
            const double value = solve(chain, chain.candidate, now);
            improved = value > incumbent;
            if (annealingAccepts(value, chain.currentValue, temperature,
                                 u)) {
                std::swap(chain.current, chain.candidate);
                chain.currentValue = value;
            }
        } else {
            ++chain.evaluated;
        }
        if (improved) {
            stagnation = 0;
        } else if (++stagnation > 2000L * n / 10) {
            // Restart from the incumbent.
            chain.current = chain.best;
            chain.currentValue = chain.bestValue;
            stagnation = 0;
        }
    }

    // Climb from the best placement, solving candidates whose bound
    // beats it.
    chain.current = chain.best;
    chain.currentBound = layerBound(chain.current, chain.delta, chain.held);
    for (; now + longest < end; next()) {
        if (stopping())
            return;
        climb(chain, now);
    }
}

ModelPlacement
FlowSearch::run(const std::vector<ModelPlacement> &seeds, double bound,
                HelixPlannerReport &report, int threads,
                const WallTimer &timer)
{
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
            report.progress.push_back({timer.seconds(), best_value});
        }
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

    // The chains start from the best seed, each with its own stream,
    // and all their storage is made here, before the workers start.
    const Rng root(cfg.seed);
    std::deque<Chain> chains;
    for (int k = 0; k < kChains; ++k) {
        chains.emplace_back(*this, k == 0 ? root : root.fork(k), best,
                            best_value);
    }
    // Workers take the chains in index order, so chain k shares the
    // time left with the (kChains - 1 - k) / workers chains its worker
    // runs after it. A chain that throws stops the others.
    const int workers = taskWorkers(threads, kChains);
    std::atomic<bool> stop{false};
    std::vector<std::function<void()>> tasks;
    for (int k = 0; k < kChains; ++k) {
        tasks.push_back([&, k] {
            try {
                const int left = (kChains - 1 - k) / workers + 1;
                const double now = timer.seconds();
                const double share =
                    std::max(0.0, cfg.timeBudgetSeconds - now) / left;
                runChain(chains[static_cast<size_t>(k)], timer, now,
                         now + share, bound, stop);
            } catch (...) {
                stop = true;
                throw;
            }
        });
    }
    runTasks(tasks, workers);

    // Merge: the best chain, ties to the lowest; every chain's counts;
    // the chains' improvements in time order while they beat the
    // incumbent so far.
    size_t winner = 0;
    std::vector<ProgressSample> samples;
    for (size_t k = 0; k < chains.size(); ++k) {
        const Chain &chain = chains[k];
        if (chain.bestValue > chains[winner].bestValue)
            winner = k;
        report.candidatesEvaluated += chain.evaluated;
        report.candidatesSolved += chain.solved;
        samples.insert(samples.end(), chain.progress.begin(),
                       chain.progress.end());
    }
    std::stable_sort(samples.begin(), samples.end(),
                     [](const ProgressSample &a, const ProgressSample &b) {
                         return a.seconds < b.seconds;
                     });
    for (const ProgressSample &sample : samples) {
        if (sample.incumbent > report.progress.back().incumbent)
            report.progress.push_back(sample);
    }
    report.chains = kChains;
    report.threads = workers;
    report.winningChain = static_cast<int>(winner);
    report.earlyStopped = stop;
    report.bestThroughput = chains[winner].bestValue;
    report.wallSeconds = timer.seconds();
    return std::move(chains[winner].best);
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

    // The search's deadline is on this timer: the warm starts and the
    // search's own setup count against it.
    FlowSearch search(cluster, profiler, cfg);
    return search.run(seeds, lastReport.upperBound, lastReport,
                      searchThreads, timer);
}

} // namespace placement
} // namespace helix
