/**
 * @file
 * helix_bench: the benchmark program behind benchmark/run.py.
 *
 *   helix_bench --workload W --seed S --seconds T [--trace]
 *               [--data DIR] [--spans FILE]
 *
 * One process runs one workload on inputs generated from --seed and
 * prints one JSON object on stdout: every metric by name, the outcome
 * of each correctness check, and a digest of the simulated outputs.
 * Only the library's public headers are used; every layer is timed
 * from outside, around the calls into it.
 *
 * The run repeats passes until --seconds have elapsed (and at least
 * kMinPasses). Each pass sets the workload up from scratch kSetupReps
 * times, then makes its timed calls: the planner (plan-hetero42) or
 * ClusterSimulator::run on every case. On a shared host whose CPU speed
 * drifts by tens of percent, a median moves with the neighbours' load,
 * while the fastest of many short samples repeats better from run to
 * run (benchmark/README.md has the measurements). So setup_s starts
 * from the fastest set-up, and run_s is the fastest plan() call on
 * plan-hetero42. Elsewhere the passes repeat the same simulation, so
 * every pass makes the same sequence of scheduler calls and must
 * produce the same digest. run_s cuts each simulation at those calls
 * into intervals of tens of microseconds and sums, over the intervals,
 * the fastest time any pass took.
 *
 * Slowdowns that outlast a run remain in those minima. After every pass
 * the run times a fixed reference kernel, and setup_s and the simulator
 * workloads' run_s are scaled by kReferenceS over its fastest time:
 * they are seconds on a host that runs the kernel in kReferenceS. The
 * unscaled times are printed beside them. plan() is not scaled: its
 * time budget fixes its duration on any host.
 *
 * With --trace the final pass also times every scheduler call and
 * records it as a span carrying the request id, and link statistics
 * are collected. Afterwards the primary simulation is rerun with
 * tracing off and again at four simulator threads; both must produce
 * the traced pass's digest. The spans are written as Chrome trace-event
 * JSON to --spans.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/profiler.h"
#include "exp/experiment.h"
#include "io/serialization.h"
#include "placement/helix_planner.h"
#include "placement/placement_graph.h"
#include "placement/planners.h"
#include "scheduler/scheduler.h"
#include "scheduler/topology_manager.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "util/random.h"
#include "util/stats.h"

namespace {

using namespace helix;
using Clock = std::chrono::steady_clock;

/** Set-ups per pass; setup_s is the fastest of all of them. A fixed
 *  count, so that the spans and timings they leave do not grow the
 *  resident set with the host's speed. */
constexpr int kSetupReps = 3;
/** Fewest passes per run, however long they take. */
constexpr size_t kMinPasses = 3;
/** plan-hetero42 plans one seed per pass (seed, seed + 1, ...) and
 *  makes at least kPlannerSeeds passes. */
constexpr size_t kPlannerSeeds = 5;
constexpr double kPlannerBudgetS = 2.0;
/** Goodput ladder of serve-hetero42, requests/s. */
constexpr double kLadderLow = 2.0;
constexpr double kLadderHigh = 5.0;
constexpr double kLadderStep = 0.5;
/** Offered load at which latency is reported on hetero42. */
constexpr double kLatencyRate = 4.0;
/** Goodput limits: p99 TTFT and TPOT, and the share of in-window
 *  arrivals that must get their first token inside the window. */
constexpr double kTtftLimitS = 6.0;
constexpr double kTpotLimitS = 1.1;
constexpr double kMinServedShare = 0.95;
/** Percentile reported as the tail; it needs >= 10 samples beyond it. */
constexpr double kTail = 99.0;
constexpr size_t kMinTailSamples = 1000;
/** Simulator threads of the traced executor rerun. */
constexpr int kExecutorThreads = 4;
/** Host-speed reference: kReferenceSamples timings of the kernel after
 *  every pass. kReferenceS is its nominal time, close to its fastest on
 *  the host of benchmark/README.md. The kernel makes kReferenceSteps
 *  steps over a table of kReferenceEntries (512 KB) and a heap of at
 *  most kReferenceHeap events. */
constexpr int kReferenceSamples = 5;
constexpr double kReferenceS = 0.004;
constexpr int kReferenceSteps = 100000;
constexpr size_t kReferenceEntries = size_t{1} << 17;
constexpr size_t kReferenceHeap = 4096;

double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 == 1
               ? values[mid]
               : 0.5 * (values[mid - 1] + values[mid]);
}

double
fastest(const std::vector<double> &values)
{
    return values.empty() ? 0.0
                          : *std::min_element(values.begin(), values.end());
}

/** Peak resident set of this program, MB: VmHWM, not ru_maxrss, which
 *  Linux carries over from the process that exec'd this one (the
 *  Python runner, larger than the hetero42 workloads). */
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

double
currentRssMb()
{
    std::ifstream statm("/proc/self/statm");
    long pages = 0;
    long resident = 0;
    statm >> pages >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/** Written by the reference kernel, so that its work cannot be dropped
 *  or moved past its second clock read. */
volatile uint64_t referenceSink = 0;

/**
 * The host-speed reference kernel, shaped like a discrete-event loop:
 * each step reads a table entry chosen by the entry before and a
 * pseudo-random offset, taken modulo the table size, and pushes an
 * event onto a binary heap, popping the earliest once the heap holds
 * kReferenceHeap. It slows with the host's contention for the core and
 * its caches as the simulator does; a register-only loop did not. Its
 * 512 KB table counts toward peak_rss_mb.
 */
class HostReference
{
  public:
    HostReference() : table(kReferenceEntries)
    {
        uint64_t state = 88172645463325252ULL;
        for (uint32_t &entry : table) {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            entry = static_cast<uint32_t>(state);
        }
        heap.reserve(kReferenceHeap + 1);
    }

    /** The fastest of kReferenceSamples timings, seconds. */
    double
    sample()
    {
        double best = time();
        for (int i = 1; i < kReferenceSamples; ++i)
            best = std::min(best, time());
        return best;
    }

  private:
    double
    time()
    {
        const std::greater<uint64_t> earlier;
        heap.clear();
        uint64_t state = 1;
        uint32_t entry = 0;
        const Clock::time_point start = Clock::now();
        for (int i = 0; i < kReferenceSteps; ++i) {
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            entry = table[(entry + (state >> 40)) % table.size()];
            heap.push_back((state >> 20) ^ entry);
            std::push_heap(heap.begin(), heap.end(), earlier);
            if (heap.size() > kReferenceHeap) {
                std::pop_heap(heap.begin(), heap.end(), earlier);
                heap.pop_back();
            }
        }
        referenceSink = heap.front();
        return secondsBetween(start, Clock::now());
    }

    std::vector<uint32_t> table;
    std::vector<uint64_t> heap;
};

bool
closeRel(double a, double b, double tolerance)
{
    return std::fabs(a - b) <=
           tolerance * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::string
format(const char *fmt, double a, double b = 0.0)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, fmt, a, b);
    return buf;
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/**
 * Spans at the layer boundaries, kept in memory and written out when
 * the run ends. Coarse spans (set-up steps, planner and simulator
 * calls) are always recorded, because the end-to-end times are made of
 * them; per-call scheduler spans only while detail is on.
 */
class Tracer
{
  public:
    Tracer() : origin(Clock::now()) {}

    bool detailed() const { return detail; }
    void setDetailed(bool on) { detail = on; }

    /** Open a span as a child of the innermost open span. */
    int
    open(const char *name)
    {
        const int parent = stack.empty() ? -1 : stack.back();
        spans.push_back({name, sinceOrigin(Clock::now()), 0, parent, -1});
        stack.push_back(static_cast<int>(spans.size()) - 1);
        return stack.back();
    }

    /** Close the innermost open span, @p id; returns its seconds. */
    double
    close(int id)
    {
        stack.pop_back();
        Span &span = spans[static_cast<size_t>(id)];
        span.endNs = sinceOrigin(Clock::now());
        return seconds(span);
    }

    /** Record a finished call under the innermost open span. */
    void
    leaf(const char *name, Clock::time_point start, Clock::time_point end,
         long request)
    {
        spans.push_back({name, sinceOrigin(start), sinceOrigin(end),
                         stack.empty() ? -1 : stack.back(), request});
    }

    size_t size() const { return spans.size(); }

    /** Seconds in spans named @p name among spans [from, to). */
    double
    sum(const char *name, size_t from, size_t to) const
    {
        double total = 0.0;
        for (size_t i = from; i < to && i < spans.size(); ++i) {
            if (std::strcmp(spans[i].name, name) == 0)
                total += seconds(spans[i]);
        }
        return total;
    }

    /** Seconds covered by top-level spans. */
    double
    topLevelSeconds() const
    {
        double total = 0.0;
        for (const Span &span : spans) {
            if (span.parent < 0)
                total += seconds(span);
        }
        return total;
    }

    /** Seconds since the tracer was created. */
    double elapsed() const { return secondsBetween(origin, Clock::now()); }

    /** Write Chrome trace-event JSON ("X" events, microseconds). */
    bool
    write(const std::string &path) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (out == nullptr)
            return false;
        std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
        for (size_t i = 0; i < spans.size(); ++i) {
            const Span &span = spans[i];
            std::fprintf(out,
                         "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                         "\"span\":%zu,\"parent\":%d",
                         span.name, static_cast<double>(span.startNs) * 1e-3,
                         static_cast<double>(span.endNs - span.startNs) *
                             1e-3,
                         i, span.parent);
            if (span.request >= 0)
                std::fprintf(out, ",\"request\":%ld", span.request);
            std::fputs(i + 1 < spans.size() ? "}},\n" : "}}\n", out);
        }
        std::fputs("]}\n", out);
        return std::fclose(out) == 0;
    }

  private:
    struct Span
    {
        const char *name;
        int64_t startNs;
        int64_t endNs;
        int parent;
        long request;
    };

    static double
    seconds(const Span &span)
    {
        return static_cast<double>(span.endNs - span.startNs) * 1e-9;
    }

    int64_t
    sinceOrigin(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
            .count();
    }

    bool detail = false;
    Clock::time_point origin;
    std::vector<Span> spans;
    std::vector<int> stack;
};

/** A span open for the lifetime of the object, or until stop(). */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name)
        : owner(tracer), id(tracer.open(name))
    {
    }

    ~Scope()
    {
        if (id >= 0)
            owner.close(id);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** Close the span now; returns its seconds. */
    double
    stop()
    {
        const double seconds = owner.close(id);
        id = -1;
        return seconds;
    }

  private:
    Tracer &owner;
    int id;
};

// ---------------------------------------------------------------------
// The scheduler seen from outside
// ---------------------------------------------------------------------

/**
 * Forwards every call to the real scheduler. It checks each pipeline
 * the scheduler returns and counts picks and refusals. Between
 * startSegments() and stopSegments() it cuts the run at every call and
 * keeps, per interval, the shortest time seen over the runs it was
 * given. While the tracer's detail is on it also times each call and
 * records it as a span carrying the request id. The simulator only uses
 * the RequestScheduler interface, so the wrapper does not change what
 * it simulates.
 */
class CheckedScheduler final : public scheduler::RequestScheduler
{
  public:
    struct Counters
    {
        long picks = 0;
        long refusals = 0;
        /** Pipelines failing pipelineValid or using a dead node. */
        long invalid = 0;
        long stages = 0;
        long swaps = 0;
        double pickS = 0.0;
        double notifyS = 0.0;
        double swapS = 0.0;
    };

    CheckedScheduler(scheduler::RequestScheduler &wrapped, int num_layers,
                     Tracer &tracer)
        : inner(wrapped), layers(num_layers), spans(tracer)
    {
    }

    std::string name() const override { return inner.name(); }

    std::optional<scheduler::Pipeline>
    schedule(const trace::Request &request,
             const scheduler::SchedulerContext &ctx) override
    {
        const Clock::time_point start = Clock::now();
        mark(start);
        std::optional<scheduler::Pipeline> pipeline =
            inner.schedule(request, ctx);
        if (spans.detailed()) {
            const Clock::time_point end = Clock::now();
            count.pickS += secondsBetween(start, end);
            spans.leaf(pipeline ? "scheduler.pick" : "scheduler.refuse",
                       start, end, request.id);
        }
        if (!pipeline) {
            ++count.refusals;
            return pipeline;
        }
        ++count.picks;
        count.stages += static_cast<long>(pipeline->size());
        bool ok = scheduler::pipelineValid(*pipeline, layers);
        for (const scheduler::PipelineStage &stage : *pipeline)
            ok = ok && ctx.nodeAlive(stage.node);
        if (!ok)
            ++count.invalid;
        return pipeline;
    }

    void
    onRequestAdmitted(const trace::Request &request,
                      const scheduler::Pipeline &pipeline) override
    {
        timed("scheduler.admitted", request.id, count.notifyS, [&] {
            inner.onRequestAdmitted(request, pipeline);
        });
    }

    void
    onRequestFinished(const trace::Request &request,
                      const scheduler::Pipeline &pipeline) override
    {
        timed("scheduler.finished", request.id, count.notifyS, [&] {
            inner.onRequestFinished(request, pipeline);
        });
    }

    void
    onTopologyChange(const scheduler::Topology &topology) override
    {
        ++count.swaps;
        timed("scheduler.swap", -1, count.swapS,
              [&] { inner.onTopologyChange(topology); });
    }

    const Counters &counters() const { return count; }

    /** Start a run. @p fastest is empty before the first run of a
     *  simulation and holds that run's intervals afterwards. */
    void
    startSegments(std::vector<double> &fastest)
    {
        best = &fastest;
        expected = fastest.size();
        next = 0;
        last = Clock::now();
    }

    /** End the run; false when it made a different number of calls
     *  than the first. */
    bool
    stopSegments()
    {
        mark(Clock::now());
        best = nullptr;
        return expected == 0 || next == expected;
    }

  private:
    void
    mark(Clock::time_point now)
    {
        if (best == nullptr)
            return;
        const double seconds = secondsBetween(last, now);
        if (expected == 0)
            best->push_back(seconds);
        else if (next < expected)
            (*best)[next] = std::min((*best)[next], seconds);
        ++next;
        last = now;
    }

    template <typename Call>
    void
    timed(const char *span, long request, double &total, Call call)
    {
        const Clock::time_point start = Clock::now();
        mark(start);
        if (!spans.detailed()) {
            call();
            return;
        }
        call();
        const Clock::time_point end = Clock::now();
        total += secondsBetween(start, end);
        spans.leaf(span, start, end, request);
    }

    scheduler::RequestScheduler &inner;
    int layers;
    Tracer &spans;
    Counters count;
    std::vector<double> *best = nullptr;
    size_t expected = 0;
    size_t next = 0;
    Clock::time_point last;
};

// ---------------------------------------------------------------------
// Output digest
// ---------------------------------------------------------------------

/** FNV-1a over the bytes of the values fed to it. */
class Digest
{
  public:
    void
    bytes(const void *data, size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < size; ++i) {
            hash ^= p[i];
            hash *= 1099511628211ULL;
        }
    }

    void add(double value) { bytes(&value, sizeof value); }
    void add(long value) { bytes(&value, sizeof value); }

    void
    add(const std::string &text)
    {
        add(static_cast<long>(text.size()));
        bytes(text.data(), text.size());
    }

    void
    add(const StatAccumulator &stat)
    {
        add(static_cast<long>(stat.count()));
        add(stat.sum());
        for (int p = 0; p <= 100; ++p)
            add(stat.percentile(p));
    }

    uint64_t value() const { return hash; }

  private:
    uint64_t hash = 14695981039346656037ULL;
};

/** Every SimMetrics field except linkStats, which only tracing fills. */
void
addMetrics(Digest &digest, const sim::SimMetrics &m)
{
    digest.add(m.decodeThroughput);
    digest.add(m.promptThroughput);
    digest.add(m.promptLatency);
    digest.add(m.decodeLatency);
    for (long count : {m.requestsArrived, m.requestsAdmitted,
                       m.requestsCompleted, m.requestsRejected,
                       m.requestsRestarted, m.requestsPreempted,
                       m.decodeTokensInWindow, m.promptTokensInWindow})
        digest.add(count);
    for (const sim::SimMetrics::FlowEvent &event : m.flowEvents) {
        digest.add(event.time);
        digest.add(static_cast<long>(event.node));
        digest.add(static_cast<long>(event.kind));
        digest.add(event.flow);
        digest.add(static_cast<long>(event.resolveKind));
    }
    digest.add(m.simulatedSeconds);
    digest.add(m.avgKvUtilization);
    for (const sim::SimMetrics::NodeStat &stat : m.nodeStats) {
        digest.add(stat.batches);
        digest.add(stat.itemsProcessed);
        digest.add(stat.tokensProcessed);
        digest.add(stat.busySeconds);
        digest.add(stat.kvUtilization);
    }
    for (const sim::SimMetrics::TenantStat &stat : m.tenantStats) {
        digest.add(stat.name);
        digest.add(stat.weight);
        for (long count : {stat.requestsArrived, stat.requestsAdmitted,
                           stat.requestsCompleted, stat.requestsRejected,
                           stat.requestsPreempted, stat.decodeTokensInWindow,
                           stat.ttftSamples, stat.ttftMet, stat.tpotSamples,
                           stat.tpotMet})
            digest.add(count);
        digest.add(stat.decodeThroughput);
        digest.add(stat.sloTtftS);
        digest.add(stat.sloTpotS);
        digest.add(stat.ttftAttainment);
        digest.add(stat.tpotAttainment);
    }
    digest.add(m.jainIndex);
}

uint64_t
digestOf(const sim::SimMetrics &metrics)
{
    Digest digest;
    addMetrics(digest, metrics);
    return digest.value();
}

// ---------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------

enum class Workload
{
    PlanHetero42,
    ServeHetero42,
    ScaleGeo1k,
    ChurnTenants,
};

struct WorkloadName
{
    Workload workload;
    const char *name;
};

constexpr WorkloadName kWorkloads[] = {
    {Workload::PlanHetero42, "plan-hetero42"},
    {Workload::ServeHetero42, "serve-hetero42"},
    {Workload::ScaleGeo1k, "scale-geo1k"},
    {Workload::ChurnTenants, "churn-tenants"},
};

struct Options
{
    Workload workload = Workload::ServeHetero42;
    std::string workloadName;
    uint64_t seed = 43;
    double seconds = 20.0;
    bool trace = false;
    std::string dataDir = "benchmark/data";
    std::string spansPath;
};

/** One simulation a workload runs on every pass. */
struct SimCase
{
    std::string label;
    /** Offered load, requests/s. */
    double rate = 0.0;
    sim::SimConfig config;
    std::vector<trace::Request> requests;
};

/** A simulator ready to run one case, with its scheduler. */
struct Prepared
{
    std::unique_ptr<scheduler::HelixScheduler> inner;
    std::unique_ptr<CheckedScheduler> checked;
    std::unique_ptr<sim::ClusterSimulator> simulator;
};

/**
 * Everything set-up builds. Heap-allocated and never moved: the
 * topology, schedulers and simulators hold references into it.
 */
struct Fixture
{
    std::string clusterName;
    std::string modelName;
    std::string plannerName;
    cluster::ClusterSpec cluster;
    std::unique_ptr<cluster::Profiler> profiler;
    placement::ModelPlacement placement;
    std::unique_ptr<scheduler::Topology> topology;
    double plannedTokS = 0.0;
    /** Max-flow recorded beside the pinned placement (serve only). */
    double recordedTokS = 0.0;
    /** The first case's decode throughput is reported, and the latency
     *  of the primary (last) case. */
    std::vector<SimCase> cases;
    size_t primary = 0;
    /** Churn schedule, or the probe sequence of the flow replay. */
    std::vector<sim::ChurnEvent> liveness;
    /** Simulators of the pass, built during set-up. */
    std::vector<Prepared> prepared;
    /** Resident-set growth of the cluster build and the simulator
     *  constructions, MB. */
    double clusterRssMb = 0.0;
    double constructRssMb = 0.0;
};

trace::LengthModel
shortLengths()
{
    trace::LengthModel lengths;
    lengths.targetMeanPrompt = 120;
    lengths.maxPromptLen = 512;
    lengths.targetMeanOutput = 40;
    lengths.maxOutputLen = 128;
    return lengths;
}

double
meanTokens(const trace::LengthModel &lengths)
{
    return lengths.targetMeanPrompt + lengths.targetMeanOutput;
}

/** Poisson trace over the case's warmup + measure window (+2%, as
 *  helix::makeTrace generates). */
std::vector<trace::Request>
poissonTrace(uint64_t seed, const trace::LengthModel &lengths, double rate,
             const sim::SimConfig &config)
{
    trace::TraceGenerator generator(seed, lengths);
    trace::PoissonArrivals arrivals(rate);
    return generator.generate(
        (config.warmupSeconds + config.measureSeconds) * 1.02, arrivals);
}

/**
 * Liveness sequence of the churn rule: 10 fail/recover pairs, the k-th
 * on node 7k mod n, failing at (10 + 8k)% of the horizon and down for
 * 4% of it. Fixed rather than drawn from the seed, so the amount of
 * re-solve and restart work does not change from seed to seed.
 */
std::vector<sim::ChurnEvent>
churnRule(int num_nodes, double horizon_s)
{
    std::vector<sim::ChurnEvent> events;
    for (int k = 0; k < 10; ++k) {
        const int node = (7 * k) % num_nodes;
        const double fail = horizon_s * (0.10 + 0.08 * k);
        events.push_back({sim::ChurnEvent::Kind::Fail, node, fail});
        events.push_back(
            {sim::ChurnEvent::Kind::Recover, node, fail + 0.04 * horizon_s});
    }
    return events;
}

/** Install @p placement and solve its topology. */
void
installPlacement(Fixture &fx, placement::ModelPlacement placement,
                 Tracer &tracer)
{
    Scope scope(tracer, "placement.topology");
    fx.placement = std::move(placement);
    placement::PlacementGraph graph(fx.cluster, *fx.profiler, fx.placement);
    (void)graph.maxThroughput();
    fx.topology = std::make_unique<scheduler::Topology>(
        fx.cluster, *fx.profiler, fx.placement, graph);
    fx.plannedTokS = fx.topology->maxFlow();
}

Prepared
prepareCase(const Fixture &fx, const SimCase &simcase, Tracer &tracer)
{
    Prepared prepared;
    prepared.inner =
        std::make_unique<scheduler::HelixScheduler>(*fx.topology);
    prepared.checked = std::make_unique<CheckedScheduler>(
        *prepared.inner, fx.profiler->modelSpec().numLayers, tracer);
    prepared.simulator = std::make_unique<sim::ClusterSimulator>(
        fx.cluster, *fx.profiler, fx.placement, *prepared.checked,
        simcase.config);
    return prepared;
}

/** Build the simulators of every case. */
void
prepareAll(Fixture &fx, Tracer &tracer)
{
    Scope scope(tracer, "sim.construct");
    const double before = currentRssMb();
    fx.prepared.clear();
    for (const SimCase &simcase : fx.cases)
        fx.prepared.push_back(prepareCase(fx, simcase, tracer));
    fx.constructRssMb = currentRssMb() - before;
}

/** Read the pinned placement and the max-flow recorded beside it
 *  ("# max-flow <tok/s>"). */
std::optional<placement::ModelPlacement>
loadPinned(const std::string &path, double &recorded, std::string &error)
{
    std::optional<std::string> text = io::readFile(path);
    if (!text) {
        error = "cannot read " + path;
        return std::nullopt;
    }
    const std::string key = "# max-flow ";
    std::istringstream lines(*text);
    std::string line;
    recorded = -1.0;
    while (std::getline(lines, line)) {
        if (line.rfind(key, 0) != 0)
            continue;
        const std::string value = line.substr(
            key.size(), line.find(' ', key.size()) - key.size());
        if (!io::parseDouble(value, recorded))
            recorded = -1.0;
    }
    if (recorded <= 0.0) {
        error = path + ": no '# max-flow <tok/s>' line";
        return std::nullopt;
    }
    io::ParseError parse_error;
    std::optional<placement::ModelPlacement> placement =
        io::placementFromString(*text, parse_error);
    if (!placement)
        error = path + ": " + parse_error.str();
    return placement;
}

/** The hetero42 serving setting: paper lengths, 60 s warmup. */
sim::SimConfig
paperConfig(double measure_s)
{
    sim::SimConfig config;
    config.warmupSeconds = 60.0;
    config.measureSeconds = measure_s;
    return config;
}

/**
 * Build one workload's inputs. Returns null and fills @p error when an
 * input cannot be built.
 */
std::unique_ptr<Fixture>
setUp(const Options &opt, Tracer &tracer, std::string &error)
{
    auto fx = std::make_unique<Fixture>();
    const uint64_t seed = opt.seed;
    switch (opt.workload) {
      case Workload::PlanHetero42:
      case Workload::ServeHetero42:
        fx->clusterName = "hetero42";
        fx->modelName = "llama70b";
        break;
      case Workload::ScaleGeo1k:
        fx->clusterName = "gen:geo-distributed:1000";
        fx->modelName = "llama30b";
        break;
      case Workload::ChurnTenants:
        fx->clusterName = "gen:long-tail-heterogeneous:200";
        fx->modelName = "llama30b";
        break;
    }
    std::optional<cluster::ClusterSpec> spec;
    {
        Scope scope(tracer, "cluster.build");
        const double before = currentRssMb();
        spec = exp::clusterByName(fx->clusterName);
        fx->clusterRssMb = currentRssMb() - before;
    }
    std::optional<model::TransformerSpec> model =
        exp::modelByName(fx->modelName);
    if (!spec || !model) {
        error = "unknown cluster or model";
        return nullptr;
    }
    fx->cluster = std::move(*spec);
    fx->profiler = std::make_unique<cluster::Profiler>(*model);

    // hetero42: an offline run at three times the cluster's compute
    // bound, and Poisson arrivals at kLatencyRate.
    const trace::LengthModel paper;
    const double offline_rate =
        3.0 * fx->profiler->throughputUpperBound(fx->cluster) /
        meanTokens(paper);
    std::optional<placement::ModelPlacement> placement;
    switch (opt.workload) {
      case Workload::PlanHetero42:
        // The placement comes from the timed planner run of each pass.
        // Its latency run is shorter than serve-hetero42's; the tail
        // latency pools the samples of every pass.
        fx->plannerName = "helix";
        fx->cases.push_back({"offline", offline_rate, paperConfig(300.0), {}});
        fx->cases.push_back(
            {"rate-4.0", kLatencyRate, paperConfig(300.0), {}});
        break;
      case Workload::ServeHetero42: {
        fx->plannerName = "pinned";
        {
            Scope scope(tracer, "placement.plan");
            placement = loadPinned(
                opt.dataDir + "/hetero42-llama70b.placement",
                fx->recordedTokS, error);
        }
        if (!placement)
            return nullptr;
        if (placement->size() !=
                static_cast<size_t>(fx->cluster.numNodes()) ||
            !placement::placementValid(*placement, fx->cluster,
                                       *fx->profiler)) {
            error = "pinned placement does not fit hetero42 x llama70b";
            return nullptr;
        }
        // The offline run needs only a steady throughput, and measures
        // 300 s as on plan-hetero42; the latency run needs 600 s for
        // 1,000 samples of each tail.
        fx->cases.push_back({"offline", offline_rate, paperConfig(300.0), {}});
        fx->cases.push_back(
            {"rate-4.0", kLatencyRate, paperConfig(600.0), {}});
        break;
      }
      case Workload::ScaleGeo1k: {
        fx->plannerName = "swarm";
        {
            Scope scope(tracer, "placement.plan");
            placement = placement::SwarmPlanner().plan(fx->cluster,
                                                       *fx->profiler);
        }
        // 20 s measured keep a pass near one second, so a run makes
        // ten or more passes; the backlog of 10 s of arrivals keeps the
        // cluster busy through the window.
        sim::SimConfig config;
        config.warmupSeconds = 2.0;
        config.measureSeconds = 20.0;
        fx->cases.push_back({"overload", 2000.0, config, {}});
        break;
      }
      case Workload::ChurnTenants: {
        fx->plannerName = "swarm";
        {
            Scope scope(tracer, "placement.plan");
            placement = placement::SwarmPlanner().plan(fx->cluster,
                                                       *fx->profiler);
        }
        sim::SimConfig config;
        config.warmupSeconds = 30.0;
        config.measureSeconds = 120.0;
        config.tenants = {
            {"batch", 1.0, 0.5, 0.0, 0.0},
            {"standard", 2.0, 0.25, 0.0, 0.0},
            {"interactive", 4.0, 0.25, 2.0, 0.5},
        };
        config.starvationTolerance = 0.5;
        config.preemptionTimeoutS = 2.0;
        config.churnEvents =
            churnRule(fx->cluster.numNodes(),
                      config.warmupSeconds + config.measureSeconds);
        fx->cases.push_back({"tenants", 0.0, config, {}});
        break;
      }
    }
    if (placement)
        installPlacement(*fx, std::move(*placement), tracer);
    fx->primary = fx->cases.size() - 1;

    {
        Scope scope(tracer, "trace.generate");
        for (SimCase &simcase : fx->cases) {
            simcase.config.collectLinkStats = opt.trace;
            switch (opt.workload) {
              case Workload::PlanHetero42:
              case Workload::ServeHetero42:
                simcase.requests = poissonTrace(seed, paper, simcase.rate,
                                                simcase.config);
                break;
              case Workload::ScaleGeo1k: {
                trace::TraceGenerator generator(seed, shortLengths());
                trace::PoissonArrivals arrivals(simcase.rate);
                simcase.requests = generator.generateCount(20000, arrivals);
                break;
              }
              case Workload::ChurnTenants: {
                // Offline load at 1.5x the planned flow. Tenants by
                // arrival mix, except that everything arriving in the
                // first 60 s is relabelled batch: a flood the
                // fair-share controller has to hold back.
                simcase.rate =
                    1.5 * fx->plannedTokS / meanTokens(shortLengths());
                simcase.requests = poissonTrace(seed, shortLengths(),
                                                simcase.rate, simcase.config);
                Rng labels = Rng(seed).fork(0x74656e616e74ULL);
                for (trace::Request &request : simcase.requests) {
                    const double u = labels.nextDouble();
                    request.tenant = u < 0.5 ? 0 : (u < 0.75 ? 1 : 2);
                    if (request.arrivalS < 60.0)
                        request.tenant = 0;
                }
                break;
              }
            }
        }
    }

    const sim::SimConfig &config = fx->cases.front().config;
    fx->liveness = opt.workload == Workload::ChurnTenants
                       ? config.churnEvents
                       : churnRule(fx->cluster.numNodes(),
                                   config.warmupSeconds +
                                       config.measureSeconds);
    if (fx->topology)
        prepareAll(*fx, tracer);
    return fx;
}

// ---------------------------------------------------------------------
// Timed passes
// ---------------------------------------------------------------------

struct CaseResult
{
    sim::SimMetrics metrics;
    double runS = 0.0;
    CheckedScheduler::Counters counters;
};

struct PassResult
{
    /** The timed calls: the planner on plan-hetero42, otherwise the
     *  simulator runs, seconds. */
    double runS = 0.0;
    std::vector<CaseResult> cases;
    /** plan-hetero42: the pass's planner run and its placement. */
    double planS = 0.0;
    long candidates = 0;
    double plannedTokS = 0.0;
    /** Resident-set growth across the simulator runs, MB. */
    double runRssMb = 0.0;
    uint64_t digest = 0;
    /** Every run made as many scheduler calls as in the first pass. */
    bool segmentsMatch = true;
};

/** plan-hetero42: plan with the pass's seed, install the result and
 *  build its simulators. */
void
planOne(Fixture &fx, uint64_t seed, PassResult &pass, Tracer &tracer)
{
    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = kPlannerBudgetS;
    config.seed = seed;
    placement::HelixPlanner planner(config);
    placement::ModelPlacement placement;
    {
        Scope scope(tracer, "placement.plan");
        placement = planner.plan(fx.cluster, *fx.profiler);
        pass.planS = scope.stop();
    }
    pass.candidates = planner.report().candidatesEvaluated;
    installPlacement(fx, std::move(placement), tracer);
    prepareAll(fx, tracer);
}

/**
 * One pass over every case. @p segment_min holds, per case, the fastest
 * time each interval between scheduler calls took in earlier passes of
 * the same simulation, and is updated with this pass.
 */
PassResult
runPass(Fixture &fx, const Options &opt, size_t index,
        std::vector<std::vector<double>> &segment_min, Tracer &tracer)
{
    Scope scope(tracer, "pass");
    PassResult pass;
    if (opt.workload == Workload::PlanHetero42)
        planOne(fx, opt.seed + index, pass, tracer);
    pass.plannedTokS = fx.plannedTokS;
    Digest digest;
    double sim_s = 0.0;
    segment_min.resize(fx.cases.size());
    for (size_t i = 0; i < fx.cases.size(); ++i) {
        Prepared &prepared = fx.prepared[i];
        CaseResult result;
        const double before = currentRssMb();
        {
            Scope run(tracer, "sim.run");
            prepared.checked->startSegments(segment_min[i]);
            result.metrics = prepared.simulator->run(fx.cases[i].requests);
            pass.segmentsMatch =
                prepared.checked->stopSegments() && pass.segmentsMatch;
            result.runS = run.stop();
        }
        pass.runRssMb += currentRssMb() - before;
        sim_s += result.runS;
        result.counters = prepared.checked->counters();
        prepared = Prepared{};
        addMetrics(digest, result.metrics);
        pass.cases.push_back(std::move(result));
    }
    fx.prepared.clear();
    pass.runS = opt.workload == Workload::PlanHetero42 ? pass.planS : sim_s;
    pass.digest = digest.value();
    return pass;
}

// ---------------------------------------------------------------------
// Checks and metrics
// ---------------------------------------------------------------------

struct Report
{
    struct Check
    {
        std::string name;
        bool ok = true;
        std::string detail;
    };
    struct Metric
    {
        std::string name;
        double value = 0.0;
    };

    std::vector<Check> checks;
    std::vector<Metric> metrics;

    void
    check(const std::string &name, bool ok, const std::string &detail)
    {
        checks.push_back({name, ok, detail});
    }

    void
    set(const std::string &name, double value)
    {
        metrics.push_back({name, value});
    }
};

/** Apply the fixture's liveness sequence to a standalone
 *  TopologyManager; returns the flow after each event and the seconds
 *  the events took. */
std::vector<double>
replayLiveness(const Fixture &fx, scheduler::ResolveMode mode,
               double &event_seconds)
{
    scheduler::TopologyManager manager(fx.cluster, *fx.profiler,
                                       fx.placement, {}, mode);
    std::vector<double> flows;
    const Clock::time_point start = Clock::now();
    for (const sim::ChurnEvent &event : fx.liveness) {
        flows.push_back(manager.setNodeAlive(
            event.node, event.kind == sim::ChurnEvent::Kind::Recover));
    }
    event_seconds = secondsBetween(start, Clock::now());
    return flows;
}

/** Whether a ladder run met the goodput limits. */
bool
meetsLimits(const SimCase &simcase, const sim::SimMetrics &m)
{
    const double end =
        simcase.config.warmupSeconds + simcase.config.measureSeconds;
    long arrivals_in_window = 0;
    for (const trace::Request &request : simcase.requests) {
        if (request.arrivalS >= simcase.config.warmupSeconds &&
            request.arrivalS < end)
            ++arrivals_in_window;
    }
    return m.requestsRejected == 0 && m.promptLatency.count() > 0 &&
           m.decodeLatency.count() > 0 &&
           m.promptLatency.percentile(kTail) <= kTtftLimitS &&
           m.decodeLatency.percentile(kTail) <= kTpotLimitS &&
           static_cast<double>(m.promptLatency.count()) >=
               kMinServedShare * static_cast<double>(arrivals_in_window);
}

/**
 * serve-hetero42's goodput: the highest ladder rate at which that rate
 * and every lower one met the limits, 0 when the lowest did not. Runs
 * once per process, after the timed passes; the latency rate's result
 * comes from the last pass.
 */
double
ladderGoodput(const Fixture &fx, const Options &opt,
              const sim::SimMetrics &at_latency_rate, Tracer &tracer,
              long &attempted, long &failed)
{
    Scope scope(tracer, "ladder");
    double best = 0.0;
    const int steps = static_cast<int>(
        std::lround((kLadderHigh - kLadderLow) / kLadderStep));
    for (int i = 0; i <= steps; ++i) {
        SimCase rung = fx.cases[fx.primary];
        rung.rate = kLadderLow + kLadderStep * i;
        sim::SimMetrics metrics;
        if (std::fabs(rung.rate - kLatencyRate) < 1e-9) {
            metrics = at_latency_rate;
        } else {
            rung.requests = poissonTrace(opt.seed, trace::LengthModel{},
                                         rung.rate, rung.config);
            Prepared prepared = prepareCase(fx, rung, tracer);
            metrics = prepared.simulator->run(rung.requests);
            attempted += metrics.requestsArrived;
            failed += metrics.requestsRejected +
                      prepared.checked->counters().invalid;
        }
        if (!meetsLimits(rung, metrics))
            break;
        best = rung.rate;
    }
    return best;
}

void
checkOutputs(const Fixture &fx, const PassResult &pass, Report &report)
{
    // Admissions count re-admissions after a churn restart or a
    // preemption, so admitted is bounded by arrived plus those.
    const auto conserves = [](long arrived, long admitted, long completed,
                              long readmitted) {
        return completed <= admitted && completed <= arrived &&
               admitted <= arrived + readmitted;
    };
    long invalid = 0;
    long picks = 0;
    bool conserved = true;
    bool tenants_sum = true;
    for (const CaseResult &result : pass.cases) {
        invalid += result.counters.invalid;
        picks += result.counters.picks;
        const sim::SimMetrics &m = result.metrics;
        const long readmitted = m.requestsRestarted + m.requestsPreempted;
        conserved = conserved && conserves(m.requestsArrived,
                                           m.requestsAdmitted,
                                           m.requestsCompleted, readmitted);
        if (m.tenantStats.empty())
            continue;
        long tokens = 0;
        long preempted = 0;
        for (const sim::SimMetrics::TenantStat &stat : m.tenantStats) {
            tokens += stat.decodeTokensInWindow;
            preempted += stat.requestsPreempted;
            conserved = conserved &&
                        conserves(stat.requestsArrived, stat.requestsAdmitted,
                                  stat.requestsCompleted, readmitted);
        }
        tenants_sum = tenants_sum && tokens == m.decodeTokensInWindow &&
                      preempted == m.requestsPreempted;
    }
    report.check("pipelines_valid", invalid == 0 && picks > 0,
                 std::to_string(picks) + " picks, " +
                     std::to_string(invalid) +
                     " invalid or through a dead node");
    report.check("requests_conserved", conserved,
                 "completed <= admitted <= arrived + restarted + preempted, "
                 "per run and per tenant");
    report.check("tenant_sums", tenants_sum,
                 "per-tenant decode tokens and preemptions sum to the totals");

    // Every re-solve the simulator logged equals a cold replay of the
    // same liveness sequence on a standalone TopologyManager.
    const sim::SimMetrics &churned = pass.cases[fx.primary].metrics;
    bool replay_ok = true;
    if (!churned.flowEvents.empty()) {
        double unused = 0.0;
        const std::vector<double> cold =
            replayLiveness(fx, scheduler::ResolveMode::Cold, unused);
        replay_ok = cold.size() == churned.flowEvents.size();
        for (size_t i = 0; replay_ok && i < cold.size(); ++i)
            replay_ok = closeRel(cold[i], churned.flowEvents[i].flow, 1e-9);
    }
    report.check("flow_replay", replay_ok,
                 std::to_string(churned.flowEvents.size()) +
                     " re-solves equal a cold replay");
}

/** Per-layer numbers of the simulator and scheduler over one pass;
 *  @p run_rss_mb is the first pass's, before memory was reused. */
void
layerMetrics(const Fixture &fx, const PassResult &pass, double run_rss_mb,
             Report &report)
{
    CheckedScheduler::Counters total;
    long batches = 0;
    long items = 0;
    long tokens = 0;
    double busy = 0.0;
    double capacity = 0.0;
    double kv = 0.0;
    double simulated = 0.0;
    double sim_s = 0.0;
    long transfers = 0;
    double link_busy_max = 0.0;
    double queue_delay_max = 0.0;
    long preempted = 0;
    long restarted = 0;
    double share_error = 0.0;
    for (size_t i = 0; i < pass.cases.size(); ++i) {
        const CaseResult &result = pass.cases[i];
        const CheckedScheduler::Counters &c = result.counters;
        total.picks += c.picks;
        total.refusals += c.refusals;
        total.stages += c.stages;
        total.swaps += c.swaps;
        total.pickS += c.pickS;
        total.notifyS += c.notifyS;
        total.swapS += c.swapS;
        sim_s += result.runS;
        const sim::SimMetrics &m = result.metrics;
        const double horizon = fx.cases[i].config.warmupSeconds +
                               fx.cases[i].config.measureSeconds;
        simulated += horizon;
        for (size_t node = 0; node < m.nodeStats.size(); ++node) {
            const sim::SimMetrics::NodeStat &stat = m.nodeStats[node];
            batches += stat.batches;
            items += stat.itemsProcessed;
            tokens += stat.tokensProcessed;
            busy += stat.busySeconds;
            if (fx.placement[node].count > 0)
                capacity += horizon;
        }
        kv += m.avgKvUtilization / static_cast<double>(pass.cases.size());
        for (const sim::LinkStat &link : m.linkStats) {
            transfers += link.transfers;
            link_busy_max =
                std::max(link_busy_max, link.busySeconds / horizon);
            queue_delay_max = std::max(queue_delay_max, link.maxQueueDelayS);
        }
        preempted += m.requestsPreempted;
        restarted += m.requestsRestarted;
        double tput = 0.0;
        double weight = 0.0;
        for (const sim::SimMetrics::TenantStat &stat : m.tenantStats) {
            tput += stat.decodeThroughput;
            weight += stat.weight;
        }
        for (const sim::SimMetrics::TenantStat &stat : m.tenantStats) {
            if (tput > 0.0)
                share_error = std::max(
                    share_error, std::fabs(stat.decodeThroughput / tput -
                                           stat.weight / weight));
        }
    }
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double sched_s = total.pickS + total.notifyS + total.swapS;
    const double calls = static_cast<double>(total.picks + total.refusals);
    report.set("scheduler.picks", static_cast<double>(total.picks));
    report.set("scheduler.refusals", static_cast<double>(total.refusals));
    report.set("scheduler.admit_ratio",
               ratio(static_cast<double>(total.picks), calls));
    report.set("scheduler.pick_s", total.pickS);
    report.set("scheduler.pick_us", ratio(total.pickS, calls) * 1e6);
    report.set("scheduler.notify_s", total.notifyS);
    report.set("scheduler.swaps", static_cast<double>(total.swaps));
    report.set("scheduler.swap_s", total.swapS);
    report.set("scheduler.pipeline_len",
               ratio(static_cast<double>(total.stages),
                     static_cast<double>(total.picks)));
    report.set("sim.self_s", sim_s - sched_s);
    report.set("sim.self_share", ratio(sim_s - sched_s, sim_s));
    report.set("sim.run_rss_mb", run_rss_mb);
    report.set("sim.batches", static_cast<double>(batches));
    report.set("sim.batch_items", ratio(static_cast<double>(items),
                                        static_cast<double>(batches)));
    report.set("sim.tokens_per_wall_s",
               ratio(static_cast<double>(tokens), sim_s));
    report.set("sim.sim_s_per_wall_s", ratio(simulated, sim_s));
    report.set("sim.busy_share", ratio(busy, capacity));
    report.set("sim.kv_util", kv);
    report.set("sim.link.transfers", static_cast<double>(transfers));
    report.set("sim.link.busy_share_max", link_busy_max);
    report.set("sim.link.queue_delay_max_s", queue_delay_max);
    report.set("fair.preempted", static_cast<double>(preempted));
    report.set("fair.restarted", static_cast<double>(restarted));
    report.set("fair.share_error", share_error);
}

/** Latency samples of the primary case pooled over every pass. */
struct LatencyPool
{
    StatAccumulator ttft;
    StatAccumulator tpot;
};

/**
 * Keep of a finished pass only the totals the report reads, and free
 * its samples and per-node, per-tenant and per-event lists. Kept, they
 * would grow peak_rss_mb with the number of passes, which follows the
 * host's speed.
 */
void
keepTotals(PassResult &pass)
{
    for (CaseResult &result : pass.cases) {
        sim::SimMetrics totals;
        totals.requestsArrived = result.metrics.requestsArrived;
        totals.requestsRejected = result.metrics.requestsRejected;
        totals.decodeThroughput = result.metrics.decodeThroughput;
        result.metrics = std::move(totals);
    }
}

/**
 * Serving numbers. Passes of a fixed placement repeat exactly, so the
 * last pass speaks for all; plan-hetero42 serves a different placement
 * each pass, so it reports the median decode throughput and the
 * latency of @p pool.
 */
void
servingMetrics(const Fixture &fx, const std::vector<PassResult> &passes,
               const LatencyPool *pool, Report &report)
{
    const sim::SimMetrics &latency = passes.back().cases[fx.primary].metrics;
    const StatAccumulator &ttft = pool ? pool->ttft : latency.promptLatency;
    const StatAccumulator &tpot = pool ? pool->tpot : latency.decodeLatency;
    std::vector<double> decode;
    for (const PassResult &pass : passes)
        decode.push_back(pass.cases.front().metrics.decodeThroughput);
    report.check("tail_samples",
                 ttft.count() >= kMinTailSamples &&
                     tpot.count() >= kMinTailSamples,
                 format("TTFT n=%.0f, TPOT n=%.0f",
                        static_cast<double>(ttft.count()),
                        static_cast<double>(tpot.count())));
    report.set("decode_tok_s", median(decode));
    report.set("ttft_p50_s", ttft.percentile(50.0));
    report.set("ttft_p99_s", ttft.percentile(kTail));
    report.set("tpot_p50_s", tpot.percentile(50.0));
    report.set("tpot_p99_s", tpot.percentile(kTail));
    report.set("ttft_samples", static_cast<double>(ttft.count()));
    report.set("tpot_samples", static_cast<double>(tpot.count()));
    long arrived = 0;
    long rejected = 0;
    for (const CaseResult &result : passes.back().cases) {
        arrived += result.metrics.requestsArrived;
        rejected += result.metrics.requestsRejected;
    }
    report.set("fail_ratio", arrived > 0 ? static_cast<double>(rejected) /
                                               static_cast<double>(arrived)
                                         : 0.0);
    if (!latency.tenantStats.empty()) {
        report.set("jain", latency.jainIndex);
        for (const sim::SimMetrics::TenantStat &stat : latency.tenantStats) {
            if (stat.sloTtftS > 0.0 && stat.sloTpotS > 0.0)
                report.set("slo_attain", std::min(stat.ttftAttainment,
                                                  stat.tpotAttainment));
        }
    }
}

/** Rerun the primary case with detail off, at @p threads simulator
 *  threads; returns its metrics and run seconds. */
sim::SimMetrics
rerunPrimary(const Fixture &fx, int threads, Tracer &tracer,
             const char *span, double &seconds)
{
    SimCase simcase = fx.cases[fx.primary];
    simcase.config.collectLinkStats = false;
    simcase.config.simThreads = threads;
    Tracer quiet;
    Prepared prepared = prepareCase(fx, simcase, quiet);
    Scope scope(tracer, span);
    sim::SimMetrics metrics = prepared.simulator->run(simcase.requests);
    seconds = scope.stop();
    return metrics;
}

/**
 * Traced runs only: the trace-off and four-thread reruns, the flow
 * replay in both re-solve modes, and the emitters. @p untraced holds
 * earlier untraced runs of the same primary case, seconds; the fastest
 * of them and the rerun is the reference for the tracing overhead and
 * the executor speed-up.
 */
void
verifyTraced(const Options &opt, const Fixture &fx, const PassResult &pass,
             std::vector<double> untraced, Tracer &tracer, Report &report)
{
    const CaseResult &traced = pass.cases[fx.primary];
    const uint64_t digest = digestOf(traced.metrics);

    double rerun_s = 0.0;
    const sim::SimMetrics off =
        rerunPrimary(fx, 1, tracer, "sim.rerun_untraced", rerun_s);
    report.check("digest_trace_off", digestOf(off) == digest,
                 "primary run with tracing off");
    untraced.push_back(rerun_s);
    const double untraced_s = fastest(untraced);
    report.set("bench.trace_overhead",
               untraced_s > 0.0 ? traced.runS / untraced_s - 1.0 : 0.0);

    double t4_s = 0.0;
    const sim::SimMetrics t4 = rerunPrimary(fx, kExecutorThreads, tracer,
                                            "executor.run_t4", t4_s);
    report.check("digest_threads_4", digestOf(t4) == digest,
                 "primary run at 4 simulator threads");
    report.set("executor.run_s_t4", t4_s);
    report.set("executor.speedup_t4", t4_s > 0.0 ? untraced_s / t4_s : 0.0);

    double cold_s = 0.0;
    double repair_s = 0.0;
    std::vector<double> cold;
    std::vector<double> repaired;
    {
        Scope scope(tracer, "flow.replay_cold");
        cold = replayLiveness(fx, scheduler::ResolveMode::Cold, cold_s);
    }
    {
        Scope scope(tracer, "flow.replay_repair");
        repaired =
            replayLiveness(fx, scheduler::ResolveMode::Repair, repair_s);
    }
    bool same = cold.size() == repaired.size();
    for (size_t i = 0; same && i < cold.size(); ++i)
        same = closeRel(cold[i], repaired[i], 1e-9);
    report.check("flow_repair_equals_cold", same,
                 std::to_string(cold.size()) + " liveness events");
    const double events = static_cast<double>(fx.liveness.size());
    report.set("flow.events", events);
    report.set("flow.cold_resolve_us",
               events > 0 ? cold_s / events * 1e6 : 0.0);
    report.set("flow.repair_resolve_us",
               events > 0 ? repair_s / events * 1e6 : 0.0);

    std::vector<exp::JobResult> results;
    for (size_t i = 0; i < pass.cases.size(); ++i) {
        exp::JobResult result;
        result.label = opt.workloadName + "/" + fx.cases[i].label;
        result.cluster = fx.clusterName;
        result.model = fx.modelName;
        result.planner = fx.plannerName;
        result.scheduler = "helix";
        result.arrivals = "poisson";
        result.plannedThroughput = fx.plannedTokS;
        result.metrics = pass.cases[i].metrics;
        result.wallSeconds = pass.cases[i].runS;
        results.push_back(std::move(result));
    }
    std::string csv;
    std::string json;
    {
        Scope scope(tracer, "exp.csv");
        csv = exp::resultsToCsv(results);
        report.set("exp.csv_s", scope.stop());
    }
    {
        Scope scope(tracer, "exp.json");
        json = exp::resultsToJson(results);
        report.set("exp.json_s", scope.stop());
    }
    report.check("emitters", !csv.empty() && !json.empty(),
                 format("%.0f CSV bytes, %.0f JSON bytes",
                        static_cast<double>(csv.size()),
                        static_cast<double>(json.size())));
}

// ---------------------------------------------------------------------
// Command line and output
// ---------------------------------------------------------------------

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: helix_bench --workload W --seed S --seconds T "
                 "[--trace] [--data DIR] [--spans FILE]\n"
                 "workloads: plan-hetero42 serve-hetero42 scale-geo1k "
                 "churn-tenants\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--trace") {
            opt.trace = true;
        } else if (arg == "--workload" && has_value) {
            opt.workloadName = argv[++i];
            for (const WorkloadName &entry : kWorkloads) {
                if (opt.workloadName == entry.name) {
                    opt.workload = entry.workload;
                    have_workload = true;
                }
            }
        } else if (arg == "--seed" && has_value) {
            if (!io::parseU64(argv[++i], opt.seed))
                return false;
        } else if (arg == "--seconds" && has_value) {
            if (!io::parseDouble(argv[++i], opt.seconds) ||
                opt.seconds <= 0.0)
                return false;
        } else if (arg == "--data" && has_value) {
            opt.dataDir = argv[++i];
        } else if (arg == "--spans" && has_value) {
            opt.spansPath = argv[++i];
        } else {
            return false;
        }
    }
    return have_workload;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return usage();
    Tracer tracer;
    Report report;
    const bool planner_workload = opt.workload == Workload::PlanHetero42;
    const size_t min_passes = planner_workload ? kPlannerSeeds : kMinPasses;

    // Passes until --seconds have elapsed, each set up kSetupReps times
    // from scratch (the last fixture is the one run). The pass expected
    // to end past --seconds is the last; with --trace it is traced.
    std::unique_ptr<Fixture> fx;
    std::vector<PassResult> passes;
    std::vector<double> setup_s;
    std::vector<double> pass_s;
    std::vector<double> planned;
    std::vector<double> cluster_s;
    std::vector<double> plan_s;
    std::vector<double> topology_s;
    std::vector<double> trace_s;
    std::vector<double> construct_s;
    LatencyPool pool;
    HostReference reference;
    std::vector<double> reference_s;
    double cluster_rss = 0.0;
    double construct_rss = 0.0;
    // Per case, the fastest each interval between scheduler calls ran in
    // any pass. Passes of a fixed placement make the same calls; those
    // of plan-hetero42 simulate a new placement each time.
    std::vector<std::vector<double>> segment_min;
    size_t last_mark = 0;
    const Clock::time_point start = Clock::now();
    double iteration_s = 0.0;
    for (bool final_pass = false; !final_pass;) {
        const Clock::time_point iteration = Clock::now();
        final_pass = passes.size() + 1 >= min_passes &&
                     secondsBetween(start, iteration) + iteration_s >=
                         opt.seconds;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            fx.reset();
            const size_t mark = tracer.size();
            Scope scope(tracer, "setup");
            std::string error;
            fx = setUp(opt, tracer, error);
            setup_s.push_back(scope.stop());
            if (!fx) {
                std::fprintf(stderr, "helix_bench: %s\n", error.c_str());
                return 1;
            }
            const size_t end = tracer.size();
            cluster_s.push_back(tracer.sum("cluster.build", mark, end));
            plan_s.push_back(tracer.sum("placement.plan", mark, end));
            topology_s.push_back(tracer.sum("placement.topology", mark, end));
            trace_s.push_back(tracer.sum("trace.generate", mark, end));
            construct_s.push_back(tracer.sum("sim.construct", mark, end));
            if (setup_s.size() == 1) {
                cluster_rss = fx->clusterRssMb;
                construct_rss = fx->constructRssMb;
            }
        }
        tracer.setDetailed(opt.trace && final_pass);
        last_mark = tracer.size();
        if (planner_workload)
            segment_min.clear();
        passes.push_back(
            runPass(*fx, opt, passes.size(), segment_min, tracer));
        tracer.setDetailed(false);
        pass_s.push_back(passes.back().runS);
        planned.push_back(passes.back().plannedTokS);
        if (planner_workload) {
            const sim::SimMetrics &m = passes.back().cases[fx->primary].metrics;
            pool.ttft.merge(m.promptLatency);
            pool.tpot.merge(m.decodeLatency);
            if (passes.size() == 1)
                construct_rss = fx->constructRssMb;
        }
        if (passes.size() >= 2)
            keepTotals(passes[passes.size() - 2]);
        {
            Scope scope(tracer, "host.reference");
            reference_s.push_back(reference.sample());
        }
        iteration_s = secondsBetween(iteration, Clock::now());
    }
    const size_t last_end = tracer.size();
    const PassResult &last = passes.back();

    long attempted = 0;
    long failed = 0;
    bool repeatable = true;
    for (const PassResult &pass : passes) {
        attempted += planner_workload ? 1 : 0;
        for (const CaseResult &result : pass.cases) {
            attempted += result.metrics.requestsArrived;
            failed += result.metrics.requestsRejected + result.counters.invalid;
        }
        repeatable = repeatable && pass.digest == last.digest &&
                     pass.segmentsMatch;
    }
    report.check("passes_repeat", planner_workload || repeatable,
                 std::to_string(passes.size()) +
                     " passes with one output digest and call sequence");

    if (opt.workload == Workload::ServeHetero42) {
        report.set("goodput_rps",
                   ladderGoodput(*fx, opt, last.cases[fx->primary].metrics,
                                 tracer, attempted, failed));
    }

    double flow_solve_s = 0.0;
    {
        Scope scope(tracer, "verify");
        checkOutputs(*fx, last, report);
        placement::PlacementGraph graph(fx->cluster, *fx->profiler,
                                        fx->placement);
        double fresh = 0.0;
        {
            Scope solve(tracer, "flow.solve");
            fresh = graph.maxThroughput();
            flow_solve_s = solve.stop();
        }
        report.check("planned_flow", closeRel(fresh, fx->plannedTokS, 1e-9),
                     format("topology %.6f vs fresh solve %.6f tok/s",
                            fx->plannedTokS, fresh));
        if (opt.workload == Workload::ServeHetero42) {
            report.check("pinned_flow",
                         closeRel(fx->plannedTokS, fx->recordedTokS, 1e-9),
                         format("max-flow %.6f, recorded %.6f tok/s",
                                fx->plannedTokS, fx->recordedTokS));
        }
        if (opt.trace) {
            // Earlier passes ran the same primary case untraced, except
            // on plan-hetero42, whose placement changes every pass.
            std::vector<double> untraced;
            for (size_t i = 0; !planner_workload && i + 1 < passes.size();
                 ++i)
                untraced.push_back(passes[i].cases[fx->primary].runS);
            verifyTraced(opt, *fx, last, untraced, tracer, report);
        }
    }

    // End-to-end metrics.
    const double planned_tok_s = median(planned);
    const double host_scale = kReferenceS / fastest(reference_s);
    double segments_s = 0.0;
    for (const std::vector<double> &best : segment_min) {
        for (double seconds : best)
            segments_s += seconds;
    }
    const double run_wall_s =
        planner_workload ? fastest(pass_s) : segments_s;
    report.set("setup_s", fastest(setup_s) * host_scale);
    report.set("run_s", planner_workload ? run_wall_s
                                         : run_wall_s * host_scale);
    report.set("setup_wall_s", fastest(setup_s));
    report.set("run_wall_s", run_wall_s);
    report.set("host.reference_s", fastest(reference_s));
    report.set("peak_rss_mb", peakRssMb());
    report.set("planned_tok_s", planned_tok_s);
    servingMetrics(*fx, passes, planner_workload ? &pool : nullptr, report);

    // Per-layer metrics. plan-hetero42 installs its placement and
    // builds its simulators inside the pass, after planning.
    const double upper = fx->profiler->throughputUpperBound(fx->cluster);
    const double decode = last.cases.front().metrics.decodeThroughput;
    report.set("trace.generate_s", fastest(trace_s));
    report.set("cluster.build_s", fastest(cluster_s));
    report.set("cluster.rss_mb", cluster_rss);
    report.set("placement.plan_s", planner_workload ? last.planS
                                                    : fastest(plan_s));
    report.set("placement.topology_s",
               planner_workload
                   ? tracer.sum("placement.topology", last_mark, last_end)
                   : fastest(topology_s));
    report.set("placement.candidates", static_cast<double>(last.candidates));
    report.set("placement.candidates_per_s",
               last.planS > 0.0
                   ? static_cast<double>(last.candidates) / last.planS
                   : 0.0);
    report.set("placement.bound_gap",
               upper > 0.0 ? 1.0 - planned_tok_s / upper : 0.0);
    report.set("placement.served_over_planned",
               last.plannedTokS > 0.0 ? decode / last.plannedTokS : 0.0);
    report.set("flow.solve_s", flow_solve_s);
    report.set("sim.construct_s",
               planner_workload
                   ? tracer.sum("sim.construct", last_mark, last_end)
                   : fastest(construct_s));
    report.set("sim.construct_rss_mb", construct_rss);
    layerMetrics(*fx, last, passes.front().runRssMb, report);

    if (opt.trace) {
        const double coverage = tracer.topLevelSeconds() / tracer.elapsed();
        report.set("bench.span_coverage", coverage);
        report.check("span_coverage", coverage >= 0.95,
                     format("top-level spans cover %.3f of wall time",
                            coverage));
        if (!opt.spansPath.empty()) {
            report.check("spans_written", tracer.write(opt.spansPath),
                         opt.spansPath);
        }
    }

    bool finite = true;
    for (const Report::Metric &metric : report.metrics)
        finite = finite && std::isfinite(metric.value);
    report.check("metrics_finite", finite, "every metric is a finite number");

    std::printf("{\"workload\": %s, \"seed\": %" PRIu64
                ", \"trace\": %s, \"passes\": %zu, \"setup_reps\": %zu, "
                "\"attempted\": %ld, \"failed\": %ld, "
                "\"output_digest\": \"%016" PRIx64 "\", "
                "\"compiler\": %s, \"build_type\": %s,\n \"metrics\": {",
                jsonString(opt.workloadName).c_str(), opt.seed,
                opt.trace ? "true" : "false", passes.size(), setup_s.size(),
                attempted, failed, last.digest,
                jsonString(HELIX_BENCH_COMPILER).c_str(),
                jsonString(HELIX_BENCH_BUILD_TYPE).c_str());
    for (size_t i = 0; i < report.metrics.size(); ++i) {
        std::printf("%s%s: %s", i == 0 ? "" : ", ",
                    jsonString(report.metrics[i].name).c_str(),
                    jsonNumber(report.metrics[i].value).c_str());
    }
    std::printf("},\n \"checks\": [");
    for (size_t i = 0; i < report.checks.size(); ++i) {
        const Report::Check &check = report.checks[i];
        std::printf("%s{\"name\": %s, \"ok\": %s, \"detail\": %s}",
                    i == 0 ? "" : ", ", jsonString(check.name).c_str(),
                    check.ok ? "true" : "false",
                    jsonString(check.detail).c_str());
    }
    std::printf("]}\n");
    return 0;
}
