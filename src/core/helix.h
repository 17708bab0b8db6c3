/**
 * @file
 * Public facade of the Helix library.
 *
 * Typical usage (see examples/quickstart.cpp):
 *
 *   auto cluster = helix::cluster::setups::singleCluster24();
 *   auto model = helix::model::catalog::llama70b();
 *   helix::placement::HelixPlanner planner;
 *   auto deployment = helix::deploy(cluster, model, planner);
 *   auto scheduler = helix::makeScheduler(
 *       deployment, helix::SchedulerKind::Helix);
 *   auto metrics = helix::runExperiment(deployment, *scheduler, {});
 */

#ifndef HELIX_CORE_HELIX_H
#define HELIX_CORE_HELIX_H

#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "cluster/profiler.h"
#include "placement/helix_planner.h"
#include "placement/planners.h"
#include "scheduler/scheduler.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace helix {

/**
 * A planned deployment: the cluster, the model, the chosen placement,
 * and the solved topology (valid connections + max-flow values) that
 * schedulers consume. Self-contained value type.
 */
class Deployment
{
  public:
    /**
     * Plan a deployment of @p model on @p cluster using @p planner.
     */
    Deployment(cluster::ClusterSpec cluster_spec,
               model::TransformerSpec model_spec,
               placement::Planner &planner);

    /** Re-plan with a different planner, keeping cluster and model. */
    void replan(placement::Planner &planner);

    /** Install an externally computed placement. */
    void usePlacement(const placement::ModelPlacement &placement);

    const cluster::ClusterSpec &clusterSpec() const { return cluster; }
    const model::TransformerSpec &modelSpec() const { return model; }
    const cluster::Profiler &profiler() const { return prof; }
    const placement::ModelPlacement &placement() const { return plan; }
    const scheduler::Topology &topology() const { return *topo; }

    /** Planner name used for the current placement. */
    const std::string &plannerName() const { return planner_name; }

    /** Planned peak serving throughput (max flow), tokens/s. */
    double plannedThroughput() const;

  private:
    void rebuildTopology();

    cluster::ClusterSpec cluster;
    model::TransformerSpec model;
    cluster::Profiler prof;
    placement::ModelPlacement plan;
    std::unique_ptr<scheduler::Topology> topo;
    std::string planner_name;
};

/** Which request scheduler to instantiate. */
enum class SchedulerKind
{
    Helix,
    Swarm,
    Random,
    ShortestQueue,
    FixedRoundRobin,
};

/** A scheduler registry entry: a SchedulerKind and its name. */
struct SchedulerName
{
    SchedulerKind kind;
    const char *name;
};

/** The scheduler registry, in the order `helixctl list` prints it:
 *  toString(SchedulerKind) and exp::schedulerKindByName read it. */
inline constexpr SchedulerName kSchedulerNames[] = {
    {SchedulerKind::Helix, "helix"},
    {SchedulerKind::Swarm, "swarm"},
    {SchedulerKind::Random, "random"},
    {SchedulerKind::ShortestQueue, "shortest-queue"},
    {SchedulerKind::FixedRoundRobin, "fixed-rr"},
};

/** Human-readable name of a SchedulerKind. */
const char *toString(SchedulerKind kind);

/** Instantiate a scheduler bound to @p deployment's topology. */
std::unique_ptr<scheduler::RequestScheduler> makeScheduler(
    const Deployment &deployment, SchedulerKind kind);

/** Arrival process shaping the generated trace. */
enum class ArrivalKind
{
    Poisson,
    Diurnal,
    /** Markov-modulated Poisson bursts (trace::BurstyArrivals). */
    Bursty,
};

/** Human-readable name of an ArrivalKind. */
const char *toString(ArrivalKind kind);

/** End-to-end experiment configuration. */
struct RunConfig
{
    /**
     * Arrival rate as a fraction of planned peak throughput. The
     * default (3.0, the paper's offline setting) intentionally
     * oversubscribes so a backlog forms and admission is gated by KV
     * capacity, mirroring the paper's "requests arrive at the
     * rate needed to fully utilize the cluster". Online runs use 0.75.
     */
    double utilization = 3.0;
    /**
     * Explicit arrival rate in requests/second; overrides utilization
     * when positive. Used by the online experiments, whose rate is
     * 75% of the measured offline peak (Sec. 6.2).
     */
    double requestRate = 0.0;
    uint64_t seed = 42;
    /** Arrival process: saturating Poisson offline, diurnal online. */
    ArrivalKind arrivals = ArrivalKind::Poisson;
    /** Bursty-arrival parameters (ArrivalKind::Bursty): rate
     *  multiplier during a burst, mean burst and gap durations. The
     *  base rate is derived so the long-run mean matches the
     *  configured rate. */
    double burstMultiplier = 5.0;
    double burstMeanS = 30.0;
    double burstGapS = 270.0;
    /**
     * Simulator settings, handed to sim::ClusterSimulator unchanged.
     * The warmup and measurement windows also size the generated
     * trace, and declared tenants also label it.
     */
    sim::SimConfig simulation;
};

/**
 * The mean arrival rate, requests/s, of @p deployment's trace under
 * @p config: requestRate when set, else utilization x the planned
 * throughput over the mean request length.
 */
double traceRequestRate(const Deployment &deployment,
                        const RunConfig &config);

/** How many seconds of arrivals a trace under @p config spans: 2%
 *  past the warmup and measurement windows. */
double traceSeconds(const RunConfig &config);

/**
 * Generate a trace for @p deployment under @p config: the configured
 * arrival process at traceRequestRate over traceSeconds.
 */
std::vector<trace::Request> makeTrace(const Deployment &deployment,
                                      const RunConfig &config);

/**
 * Label @p requests with tenant indices drawn by the tenants' mixes
 * (all-or-none), else their weights, from a stream forked off @p seed
 * for tenants alone, so the trace's own draws never change. No-op
 * without tenants.
 */
void labelTenants(std::vector<trace::Request> &requests,
                  const std::vector<scheduler::Tenant> &tenants,
                  uint64_t seed);

/** Simulate serving @p deployment with @p scheduler. */
sim::SimMetrics runExperiment(const Deployment &deployment,
                              scheduler::RequestScheduler &scheduler,
                              const RunConfig &config);

} // namespace helix

#endif // HELIX_CORE_HELIX_H
