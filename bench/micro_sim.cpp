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
 * nodes for the scaling numbers recorded in BENCH_sim.json, time and
 * peak RSS; BM_SetupScale times, step by step, what a run builds
 * before its first event on the same clusters.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>

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

/**
 * Peak resident set of this process so far, MB: VmHWM from
 * /proc/self/status (0 where that file does not exist). Not
 * getrusage's ru_maxrss, which survives execve and so can report the
 * launching process's peak instead of this one's.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0.0;
}

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
 * A generated geo-distributed cluster of the given size with its Swarm
 * placement, shared by the 1k/10k-node scaling benchmarks.
 */
struct ScaleFixture
{
    std::optional<cluster::ClusterSpec> clus;
    cluster::Profiler profiler{model::catalog::llama30b()};
    placement::ModelPlacement placement;

    explicit ScaleFixture(int num_nodes)
    {
        cluster::gen::GeneratorConfig gen_config;
        gen_config.preset = "geo-distributed";
        gen_config.numNodes = num_nodes;
        gen_config.seed = 42;
        clus = cluster::gen::generate(gen_config);
        if (clus.has_value())
            placement = placement::SwarmPlanner().plan(*clus, profiler);
    }
};

/** Seconds since @p begin. */
double
secondsSince(std::chrono::steady_clock::time_point begin)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         begin)
        .count();
}

/**
 * Event-loop scaling on generated geo-distributed clusters. Arg:
 * num_nodes. Planning (Swarm) and trace generation happen once per
 * benchmark; only the event loop is timed. Excluded from the ctest
 * smoke filter; CI's Release job runs the 1000-node configuration on
 * its own and checks its completed count, and both are run
 * explicitly when refreshing BENCH_sim.json. The
 * peak_rss_mb counter is the process's high-water mark after the
 * run, so it covers one configuration only when the filter selects
 * one per process.
 */
void
BM_SimulatorScale(benchmark::State &state)
{
    int num_nodes = static_cast<int>(state.range(0));
    ScaleFixture fx(num_nodes);
    if (!fx.clus.has_value()) {
        state.SkipWithError("generator rejected geo-distributed");
        return;
    }
    placement::PlacementGraph graph(*fx.clus, fx.profiler, fx.placement);
    scheduler::Topology topo(*fx.clus, fx.profiler, fx.placement, graph);

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
        state.SetIterationTime(timedRun(*fx.clus, fx.profiler,
                                        fx.placement, topo, requests,
                                        config, metrics));
        completed += metrics.requestsCompleted;
    }
    state.counters["completed"] = static_cast<double>(
        completed / std::max<long>(1, state.iterations()));
    state.counters["peak_rss_mb"] = peakRssMb();
}
BENCHMARK(BM_SimulatorScale)
    ->Arg(1000)
    ->Arg(10000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

/**
 * Per-run set-up on the BM_SimulatorScale clusters: everything a run
 * builds before its first event, each step timed on its own. Arg:
 * num_nodes. Counters, seconds per iteration: graph_s (PlacementGraph
 * constructor: the connection table's per-layer holder lists and one
 * flow edge per connection), maxflow_s (the preflow-push solve),
 * topology_s (Topology constructor: one pass over the connection arcs,
 * keeping the flow-carrying ones), scheduler_s (HelixScheduler
 * constructor: the IWRR selectors, from the flow-carrying connections
 * only) and simulator_s (ClusterSimulator constructor: node state;
 * links are made at first use, so none exist yet); the iteration time
 * is their sum. peak_rss_mb is the process's high-water mark, as for
 * BM_SimulatorScale, so select one configuration per process; only
 * the flow network holds per-connection state, and CI bounds the
 * 10k-node peak at 540 MB. Excluded from the CI smoke filter.
 */
void
BM_SetupScale(benchmark::State &state)
{
    ScaleFixture fx(static_cast<int>(state.range(0)));
    if (!fx.clus.has_value()) {
        state.SkipWithError("generator rejected geo-distributed");
        return;
    }
    const sim::SimConfig config;
    double graph_s = 0.0;
    double maxflow_s = 0.0;
    double topology_s = 0.0;
    double scheduler_s = 0.0;
    double simulator_s = 0.0;
    for (auto _ : state) {
        auto begin = std::chrono::steady_clock::now();
        placement::PlacementGraph graph(*fx.clus, fx.profiler,
                                        fx.placement);
        const double t_graph = secondsSince(begin);
        begin = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(graph.maxThroughput());
        const double t_maxflow = secondsSince(begin);
        begin = std::chrono::steady_clock::now();
        scheduler::Topology topo(*fx.clus, fx.profiler, fx.placement,
                                 graph);
        const double t_topology = secondsSince(begin);
        begin = std::chrono::steady_clock::now();
        scheduler::HelixScheduler sched(topo);
        const double t_scheduler = secondsSince(begin);
        begin = std::chrono::steady_clock::now();
        sim::ClusterSimulator simulator(*fx.clus, fx.profiler,
                                        fx.placement, sched, config);
        const double t_simulator = secondsSince(begin);
        benchmark::ClobberMemory();
        state.SetIterationTime(t_graph + t_maxflow + t_topology +
                               t_scheduler + t_simulator);
        graph_s += t_graph;
        maxflow_s += t_maxflow;
        topology_s += t_topology;
        scheduler_s += t_scheduler;
        simulator_s += t_simulator;
    }
    const auto avg = benchmark::Counter::kAvgIterations;
    state.counters["graph_s"] = benchmark::Counter(graph_s, avg);
    state.counters["maxflow_s"] = benchmark::Counter(maxflow_s, avg);
    state.counters["topology_s"] = benchmark::Counter(topology_s, avg);
    state.counters["scheduler_s"] = benchmark::Counter(scheduler_s, avg);
    state.counters["simulator_s"] = benchmark::Counter(simulator_s, avg);
    state.counters["peak_rss_mb"] = peakRssMb();
}
BENCHMARK(BM_SetupScale)
    ->Arg(1000)
    ->Arg(10000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

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
