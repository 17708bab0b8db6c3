/**
 * @file
 * Google-benchmark microbenchmarks for the algorithmic substrates:
 * preflow-push vs Dinic max-flow, placement-graph construction and
 * evaluation, simplex LP solves, IWRR picks, and scheduler walks.
 * These quantify the per-candidate cost of the placement search and
 * the per-request cost of scheduling.
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "cluster/cluster.h"
#include "cluster/generator.h"
#include "cluster/profiler.h"
#include "flow/max_flow.h"
#include "lp/simplex.h"
#include "milp/branch_and_bound.h"
#include "model/transformer.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "scheduler/scheduler.h"
#include "util/random.h"

namespace {

using namespace helix;

flow::FlowGraph
randomGraph(int n, int m, uint64_t seed)
{
    Rng rng(seed);
    flow::EdgeList list;
    for (int i = 0; i < n; ++i)
        list.addNode();
    for (int e = 0; e < m; ++e) {
        auto u = static_cast<flow::NodeId>(rng.nextBounded(n));
        auto v = static_cast<flow::NodeId>(rng.nextBounded(n));
        if (u != v)
            list.addEdge(u, v, rng.nextUniform(1.0, 100.0));
    }
    return list.build();
}

/**
 * Manual timing: the per-iteration resetFlow() sweep (required so
 * every iteration solves the same pristine network rather than a
 * warmed one) must not count against the solver.
 */
void
BM_PreflowPush(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    flow::FlowGraph graph = randomGraph(n, 6 * n, 99);
    for (auto _ : state) {
        graph.resetFlow();
        flow::PreflowPush solver(graph);
        auto begin = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(solver.solve(0, 1));
        auto end = std::chrono::steady_clock::now();
        state.SetIterationTime(
            std::chrono::duration<double>(end - begin).count());
    }
}
BENCHMARK(BM_PreflowPush)->Arg(16)->Arg(64)->Arg(256)->UseManualTime();

void
BM_Dinic(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    flow::FlowGraph graph = randomGraph(n, 6 * n, 99);
    for (auto _ : state) {
        graph.resetFlow();
        flow::Dinic solver(graph);
        auto begin = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(solver.solve(0, 1));
        auto end = std::chrono::steady_clock::now();
        state.SetIterationTime(
            std::chrono::duration<double>(end - begin).count());
    }
}
BENCHMARK(BM_Dinic)->Arg(16)->Arg(64)->Arg(256)->UseManualTime();

/**
 * Shared setup for the churn-event benchmarks: a placement graph over
 * a generated long-tail cluster plus the compute edge of one flapping
 * node. Measures the two ways TopologyManager can react to a churn
 * event at scale: incremental repair vs a from-scratch re-solve.
 */
struct FlapBench
{
    std::optional<cluster::ClusterSpec> clus;
    cluster::Profiler profiler{model::catalog::llama30b()};
    placement::ModelPlacement placement;
    int node = -1;
    double profiled = 0.0;

    explicit FlapBench(int n)
    {
        cluster::gen::GeneratorConfig config;
        config.preset = "long-tail-heterogeneous";
        config.numNodes = n;
        config.seed = 42;
        clus = cluster::gen::generate(config);
        placement::SwarmPlanner planner;
        placement = planner.plan(*clus, profiler);
    }

    /**
     * Flap the weakest layer-holding node: in the long-tail regime
     * that is the node that actually flaps and drifts, and its small
     * flow share keeps the repair delta local.
     */
    void
    pickNode(placement::PlacementGraph &graph)
    {
        for (int i = 0; i < clus->numNodes(); ++i) {
            flow::ArcId comp = graph.computeEdge(i);
            if (comp == flow::kInvalidArc)
                continue;
            double cap = graph.graph().originalCapacity(comp);
            if (node < 0 || cap < profiled) {
                node = i;
                profiled = cap;
            }
        }
    }
};

/**
 * Single-event incremental repair: one node fails (even iterations)
 * or recovers (odd iterations) and repairFlow() restores a maximum
 * flow from the previous one.
 */
void
BM_FlowRepair(benchmark::State &state)
{
    FlapBench bench(static_cast<int>(state.range(0)));
    placement::PlacementGraph live(*bench.clus, bench.profiler,
                                   bench.placement);
    (void)live.maxThroughput();
    bench.pickNode(live);
    bool down = false;
    for (auto _ : state) {
        down = !down;
        live.setComputeCapacity(bench.node,
                                down ? 0.0 : bench.profiled);
        benchmark::DoNotOptimize(live.repairFlow());
    }
}
BENCHMARK(BM_FlowRepair)->Arg(256)->Arg(1000);

/**
 * Solver-only cold baseline: the same flapping schedule on the same
 * network, but every event discards the previous flow (resetFlow)
 * and re-solves from zero labels. Isolates the solver comparison
 * from the graph-rebuild cost.
 */
void
BM_FlowColdSolve(benchmark::State &state)
{
    FlapBench bench(static_cast<int>(state.range(0)));
    placement::PlacementGraph live(*bench.clus, bench.profiler,
                                   bench.placement);
    bench.pickNode(live);
    flow::ArcId comp = live.computeEdge(bench.node);
    // Copy the placement network into a freely mutable FlowGraph
    // (same arc positions).
    flow::FlowGraph net = live.graph();
    bool down = false;
    for (auto _ : state) {
        down = !down;
        net.setEdgeCapacity(comp, down ? 0.0 : bench.profiled);
        net.resetFlow();
        flow::PreflowPush solver(net);
        benchmark::DoNotOptimize(
            solver.solve(live.source(), live.sink()));
    }
}
BENCHMARK(BM_FlowColdSolve)->Arg(256)->Arg(1000);

/**
 * The full cold event path BM_FlowRepair replaces: what
 * TopologyManager::resolve() in ResolveMode::Cold runs per churn
 * event — mask the flapped node out of the placement, rebuild the
 * placement graph from the profiler, and solve from scratch.
 */
void
BM_FlowColdResolve(benchmark::State &state)
{
    FlapBench bench(static_cast<int>(state.range(0)));
    {
        placement::PlacementGraph probe(*bench.clus, bench.profiler,
                                        bench.placement);
        bench.pickNode(probe);
    }
    bool down = false;
    for (auto _ : state) {
        down = !down;
        placement::ModelPlacement masked = bench.placement;
        if (down)
            masked[bench.node] = placement::NodePlacement{0, 0};
        placement::PlacementGraph graph(*bench.clus, bench.profiler,
                                        masked);
        benchmark::DoNotOptimize(graph.maxThroughput());
    }
}
BENCHMARK(BM_FlowColdResolve)->Arg(256)->Arg(1000);

void
BM_PlacementGraphEvaluate(benchmark::State &state)
{
    cluster::ClusterSpec clus = cluster::setups::singleCluster24();
    cluster::Profiler profiler(model::catalog::llama70b());
    placement::PetalsPlanner planner;
    placement::ModelPlacement placement = planner.plan(clus, profiler);
    for (auto _ : state) {
        placement::PlacementGraph graph(clus, profiler, placement);
        benchmark::DoNotOptimize(graph.maxThroughput());
    }
}
BENCHMARK(BM_PlacementGraphEvaluate);

void
BM_SimplexLp(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    Rng rng(7);
    lp::LpProblem problem;
    for (int v = 0; v < n; ++v)
        problem.addVariable(0.0, rng.nextUniform(1.0, 10.0),
                            rng.nextUniform(0.0, 2.0));
    for (int c = 0; c < n; ++c) {
        std::vector<std::pair<int, double>> terms;
        for (int v = 0; v < n; ++v)
            terms.push_back({v, rng.nextUniform(0.0, 1.0)});
        problem.addConstraint(terms, lp::Relation::LessEq,
                              rng.nextUniform(5.0, 50.0));
    }
    lp::SimplexSolver solver;
    for (auto _ : state)
        benchmark::DoNotOptimize(solver.solve(problem).objective);
}
BENCHMARK(BM_SimplexLp)->Arg(10)->Arg(40)->Arg(100);

void
BM_BranchAndBound(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    Rng rng(11);
    milp::MilpProblem problem;
    for (int v = 0; v < n; ++v)
        problem.addBinary(rng.nextUniform(1.0, 10.0));
    // Multi-dimensional knapsack: pick items under three budgets.
    for (int c = 0; c < 3; ++c) {
        std::vector<std::pair<int, double>> terms;
        for (int v = 0; v < n; ++v)
            terms.push_back({v, rng.nextUniform(0.0, 5.0)});
        problem.addConstraint(terms, lp::Relation::LessEq, 0.6 * n);
    }
    milp::BranchAndBound solver;
    milp::BnbConfig config;
    config.timeLimitSeconds = 30.0;
    for (auto _ : state)
        benchmark::DoNotOptimize(solver.solve(problem, config).objective);
}
BENCHMARK(BM_BranchAndBound)->Arg(10)->Arg(18);

/**
 * Same instances, but with the early-stop configuration the Helix
 * planner uses (Sec. 4.5): a known objective upper bound (here the
 * root LP relaxation) and a closeness threshold. Measures how quickly
 * the solver reaches a good-enough incumbent rather than a proof.
 */
void
BM_BranchAndBoundEarlyStop(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    Rng rng(11);
    milp::MilpProblem problem;
    for (int v = 0; v < n; ++v)
        problem.addBinary(rng.nextUniform(1.0, 10.0));
    for (int c = 0; c < 3; ++c) {
        std::vector<std::pair<int, double>> terms;
        for (int v = 0; v < n; ++v)
            terms.push_back({v, rng.nextUniform(0.0, 5.0)});
        problem.addConstraint(terms, lp::Relation::LessEq, 0.6 * n);
    }
    lp::SimplexSolver root;
    milp::BranchAndBound solver;
    milp::BnbConfig config;
    config.timeLimitSeconds = 30.0;
    config.objectiveUpperBound = root.solve(problem.lp()).objective;
    config.earlyStopFraction = 0.9;
    for (auto _ : state)
        benchmark::DoNotOptimize(solver.solve(problem, config).objective);
}
BENCHMARK(BM_BranchAndBoundEarlyStop)->Arg(10)->Arg(18);

void
BM_IwrrPick(benchmark::State &state)
{
    std::vector<int> ids;
    std::vector<double> weights;
    Rng rng(5);
    for (int i = 0; i < 16; ++i) {
        ids.push_back(i);
        weights.push_back(rng.nextUniform(1.0, 100.0));
    }
    scheduler::IwrrScheduler iwrr(ids, weights);
    for (auto _ : state)
        benchmark::DoNotOptimize(iwrr.pick());
}
BENCHMARK(BM_IwrrPick);

class NullContext : public scheduler::SchedulerContext
{
  public:
    int queueLength(int) const override { return 0; }
    double recentThroughput(int) const override { return 1.0; }
    double kvUsedBytes(int) const override { return 0.0; }
};

void
BM_HelixSchedulerWalk(benchmark::State &state)
{
    cluster::ClusterSpec clus = cluster::setups::singleCluster24();
    cluster::Profiler profiler(model::catalog::llama70b());
    placement::PetalsPlanner planner;
    placement::ModelPlacement placement = planner.plan(clus, profiler);
    placement::PlacementGraph graph(clus, profiler, placement);
    scheduler::Topology topo(clus, profiler, placement, graph);
    scheduler::HelixScheduler sched(topo);
    NullContext ctx;
    trace::Request req{0, 0.0, 763, 232};
    for (auto _ : state) {
        auto pipeline = sched.schedule(req, ctx);
        benchmark::DoNotOptimize(pipeline);
    }
}
BENCHMARK(BM_HelixSchedulerWalk);

void
BM_PlannerHeuristics(benchmark::State &state)
{
    cluster::ClusterSpec clus =
        cluster::setups::highHeterogeneity42();
    cluster::Profiler profiler(model::catalog::llama70b());
    for (auto _ : state) {
        placement::PetalsPlanner petals;
        placement::SwarmPlanner swarm;
        benchmark::DoNotOptimize(petals.plan(clus, profiler));
        benchmark::DoNotOptimize(swarm.plan(clus, profiler));
    }
}
BENCHMARK(BM_PlannerHeuristics);

} // namespace

BENCHMARK_MAIN();
