/**
 * @file
 * Google-benchmark microbenchmarks for the discrete-event simulator
 * and the trace generators. BM_Simulator measures the event-loop hot
 * path (event dispatch, batch assembly, link serialization) end to
 * end on a small fixed workload, so event-queue and batching changes
 * are directly comparable across commits.
 *
 * Manual timing throughout: fixture construction and trace generation
 * happen once outside the loop, and the per-iteration scheduler +
 * simulator construction (required so every iteration simulates a
 * pristine deployment rather than a warmed one) is excluded from the
 * timed region -- only ClusterSimulator::run() is measured, mirroring
 * BM_PreflowPush in micro_solvers.cpp.
 *
 * BM_SimulatorScale runs generated geo-distributed clusters at 1k/10k
 * nodes for the scaling numbers recorded in BENCH_sim.json.
 */

#include <benchmark/benchmark.h>

#include <chrono>

#include "cluster/cluster.h"
#include "cluster/generator.h"
#include "cluster/profiler.h"
#include "model/transformer.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "scheduler/scheduler.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace {

using namespace helix;

/**
 * Small deterministic fixture shared by the simulator benchmarks:
 * four T4 nodes forming two parallel 2-stage pipelines over a
 * 12-layer model, fast uniform network, and a pregenerated trace.
 */
struct SimBenchFixture
{
    cluster::ClusterSpec clus;
    model::TransformerSpec toy;
    std::unique_ptr<cluster::Profiler> profiler;
    placement::ModelPlacement placement;
    std::unique_ptr<placement::PlacementGraph> graph;
    std::unique_ptr<scheduler::Topology> topo;
    std::vector<trace::Request> requests;

    explicit SimBenchFixture(int num_requests, double rate)
    {
        for (int i = 0; i < 4; ++i) {
            cluster::NodeSpec node;
            node.name = "t4-" + std::to_string(i);
            node.gpu = cluster::gpus::t4();
            clus.addNode(std::move(node));
        }
        clus.setUniformLinks(10e9, 1e-3);
        toy = model::catalog::llama30b();
        toy.numLayers = 12;
        profiler = std::make_unique<cluster::Profiler>(toy);
        placement.nodes = {{0, 6}, {6, 6}, {0, 6}, {6, 6}};
        graph = std::make_unique<placement::PlacementGraph>(
            clus, *profiler, placement);
        topo = std::make_unique<scheduler::Topology>(clus, *profiler,
                                                     placement, *graph);

        trace::LengthModel lengths;
        lengths.targetMeanPrompt = 120;
        lengths.maxPromptLen = 512;
        lengths.targetMeanOutput = 40;
        lengths.maxOutputLen = 128;
        trace::TraceGenerator gen(3, lengths);
        trace::PoissonArrivals arrivals(rate);
        requests = gen.generateCount(num_requests, arrivals);
    }
};

/** Time one simulator.run() with construction outside the clock. */
double
timedRun(const cluster::ClusterSpec &clus,
         const cluster::Profiler &profiler,
         const placement::ModelPlacement &placement,
         const scheduler::Topology &topo,
         const std::vector<trace::Request> &requests,
         const sim::SimConfig &config, sim::SimMetrics &metrics)
{
    scheduler::HelixScheduler sched(topo);
    sim::ClusterSimulator simulator(clus, profiler, placement, sched,
                                    config);
    auto begin = std::chrono::steady_clock::now();
    metrics = simulator.run(requests);
    auto end = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(metrics);
    return std::chrono::duration<double>(end - begin).count();
}

/**
 * End-to-end simulation of a fixed trace: dominated by event-queue
 * push/pop, batch assembly in startBatch, and per-item bookkeeping in
 * finishBatch. Arg: num_requests.
 */
void
BM_Simulator(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    SimBenchFixture fx(n, 10.0);
    sim::SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 120.0;
    long decode_tokens = 0;
    sim::SimMetrics metrics;
    for (auto _ : state) {
        state.SetIterationTime(timedRun(fx.clus, *fx.profiler,
                                        fx.placement, *fx.topo,
                                        fx.requests, config, metrics));
        decode_tokens += metrics.decodeTokensInWindow;
    }
    state.counters["decode_tokens"] = static_cast<double>(
        decode_tokens / std::max<long>(1, state.iterations()));
}
BENCHMARK(BM_Simulator)
    ->Arg(100)
    ->Arg(400)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/**
 * The same workload under a fail -> recover churn schedule: adds two
 * preflow-push re-solves on the surviving subgraph plus the request
 * restarts, so the cost of dynamic topology adaptation is directly
 * comparable against the churn-free baseline above. Arg:
 * num_requests.
 */
void
BM_SimulatorChurn(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    SimBenchFixture fx(n, 10.0);
    sim::SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 120.0;
    config.churnEvents = {
        {sim::ChurnEvent::Kind::Fail, 1, 5.0},
        {sim::ChurnEvent::Kind::Recover, 1, 15.0},
    };
    long restarts = 0;
    sim::SimMetrics metrics;
    for (auto _ : state) {
        state.SetIterationTime(timedRun(fx.clus, *fx.profiler,
                                        fx.placement, *fx.topo,
                                        fx.requests, config, metrics));
        restarts += metrics.requestsRestarted;
    }
    state.counters["restarts"] = static_cast<double>(
        restarts / std::max<long>(1, state.iterations()));
}
BENCHMARK(BM_SimulatorChurn)
    ->Arg(100)
    ->Arg(400)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/**
 * Event-loop scaling on generated geo-distributed clusters. Arg:
 * num_nodes. Planning (Swarm) and trace generation happen once per
 * benchmark; only the event loop is timed. Excluded from the CI smoke
 * filter -- run explicitly when refreshing BENCH_sim.json.
 */
void
BM_SimulatorScale(benchmark::State &state)
{
    int num_nodes = static_cast<int>(state.range(0));
    cluster::gen::GeneratorConfig gen_config;
    gen_config.preset = "geo-distributed";
    gen_config.numNodes = num_nodes;
    gen_config.seed = 42;
    auto clus = cluster::gen::generate(gen_config);
    if (!clus.has_value()) {
        state.SkipWithError("generator rejected geo-distributed");
        return;
    }
    auto model = model::catalog::llama30b();
    cluster::Profiler profiler(model);
    placement::SwarmPlanner planner;
    auto placement = planner.plan(*clus, profiler);
    placement::PlacementGraph graph(*clus, profiler, placement);
    scheduler::Topology topo(*clus, profiler, placement, graph);

    trace::LengthModel lengths;
    lengths.targetMeanPrompt = 120;
    lengths.maxPromptLen = 512;
    lengths.targetMeanOutput = 40;
    lengths.maxOutputLen = 128;
    trace::TraceGenerator gen(3, lengths);
    // Scale offered load with cluster size so every configuration
    // keeps the pipelines saturated; the 10k-node configuration
    // drives >= 1M requests through the event loop.
    double rate = 2.0 * static_cast<double>(num_nodes);
    trace::PoissonArrivals arrivals(rate);
    int num_requests = num_nodes >= 10000 ? 1000000 : 40 * num_nodes;
    auto requests = gen.generateCount(num_requests, arrivals);

    sim::SimConfig config;
    config.warmupSeconds = 2.0;
    config.measureSeconds = 60.0;
    long completed = 0;
    sim::SimMetrics metrics;
    for (auto _ : state) {
        state.SetIterationTime(timedRun(*clus, profiler, placement,
                                        topo, requests, config,
                                        metrics));
        completed += metrics.requestsCompleted;
    }
    state.counters["completed"] = static_cast<double>(
        completed / std::max<long>(1, state.iterations()));
}
BENCHMARK(BM_SimulatorScale)
    ->Arg(1000)
    ->Arg(10000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/** Trace generation throughput (length sampling + arrival process). */
void
BM_TraceGenerate(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    for (auto _ : state) {
        trace::TraceGenerator gen(7);
        trace::PoissonArrivals arrivals(20.0);
        benchmark::DoNotOptimize(gen.generateCount(n, arrivals));
    }
}
BENCHMARK(BM_TraceGenerate)->Arg(1000);

} // namespace

BENCHMARK_MAIN();
