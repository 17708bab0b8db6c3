#include "core/helix.h"

#include <cstdio>

#include "util/logging.h"

namespace helix {

Deployment::Deployment(cluster::ClusterSpec cluster_spec,
                       model::TransformerSpec model_spec,
                       placement::Planner &planner)
    : cluster(std::move(cluster_spec)), model(std::move(model_spec)),
      prof(model)
{
    replan(planner);
}

void
Deployment::replan(placement::Planner &planner)
{
    plan = planner.plan(cluster, prof);
    planner_name = planner.name();
    rebuildTopology();
}

void
Deployment::usePlacement(const placement::ModelPlacement &placement)
{
    plan = placement;
    planner_name = "external";
    rebuildTopology();
}

void
Deployment::rebuildTopology()
{
    placement::PlacementGraph graph(cluster, prof, plan);
    (void)graph.maxThroughput(); // prime flows before Topology copies
    topo = std::make_unique<scheduler::Topology>(cluster, prof, plan,
                                                 graph);
}

double
Deployment::plannedThroughput() const
{
    return topo->maxFlow();
}

const char *
toString(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::Diurnal: return "diurnal";
      case ArrivalKind::Bursty:  return "bursty";
    }
    return "?";
}

const char *
toString(SchedulerKind kind)
{
    for (const SchedulerName &entry : kSchedulerNames) {
        if (entry.kind == kind)
            return entry.name;
    }
    return "?";
}

std::unique_ptr<scheduler::RequestScheduler>
makeScheduler(const Deployment &deployment, SchedulerKind kind)
{
    const scheduler::Topology &topo = deployment.topology();
    switch (kind) {
      case SchedulerKind::Helix:
        return std::make_unique<scheduler::HelixScheduler>(topo);
      case SchedulerKind::Swarm:
        return std::make_unique<scheduler::WalkScheduler>(
            topo, scheduler::WalkPolicy::ThroughputProportional);
      case SchedulerKind::Random:
        return std::make_unique<scheduler::WalkScheduler>(
            topo, scheduler::WalkPolicy::Random);
      case SchedulerKind::ShortestQueue:
        return std::make_unique<scheduler::WalkScheduler>(
            topo, scheduler::WalkPolicy::ShortestQueue);
      case SchedulerKind::FixedRoundRobin: {
        auto pipelines = scheduler::derivePipelines(
            deployment.placement(),
            deployment.modelSpec().numLayers);
        return std::make_unique<scheduler::FixedPipelineScheduler>(
            topo, std::move(pipelines));
      }
    }
    HELIX_PANIC("unknown scheduler kind");
}

double
traceRequestRate(const Deployment &deployment, const RunConfig &config)
{
    trace::LengthModel lengths;
    return config.requestRate > 0.0
               ? config.requestRate
               : config.utilization * deployment.plannedThroughput() /
                     (lengths.targetMeanPrompt + lengths.targetMeanOutput);
}

double
traceSeconds(const RunConfig &config)
{
    return (config.simulation.warmupSeconds +
            config.simulation.measureSeconds) *
           1.02;
}

std::vector<trace::Request>
makeTrace(const Deployment &deployment, const RunConfig &config)
{
    const double rate = traceRequestRate(deployment, config);
    if (rate <= 0.0) {
        std::fputs("[helix warn] deployment has zero planned throughput; "
                   "generating an empty trace\n",
                   stderr);
        return {};
    }
    const double duration = traceSeconds(config);
    trace::TraceGenerator generator(config.seed);
    std::vector<trace::Request> requests;
    switch (config.arrivals) {
      case ArrivalKind::Diurnal: {
        trace::DiurnalArrivals arrivals(rate, 0.25, 1800.0);
        requests = generator.generate(duration, arrivals);
        break;
      }
      case ArrivalKind::Bursty: {
        // Solve for the base rate so the MMPP's long-run mean equals
        // the configured rate.
        double burst_frac =
            config.burstMeanS / (config.burstMeanS + config.burstGapS);
        double base = rate / (1.0 + burst_frac *
                                        (config.burstMultiplier - 1.0));
        trace::BurstyArrivals arrivals(base, config.burstMultiplier,
                                       config.burstMeanS,
                                       config.burstGapS);
        requests = generator.generate(duration, arrivals);
        break;
      }
      case ArrivalKind::Poisson: {
        trace::PoissonArrivals arrivals(rate);
        requests = generator.generate(duration, arrivals);
        break;
      }
    }
    labelTenants(requests, config.simulation.tenants, config.seed);
    return requests;
}

void
labelTenants(std::vector<trace::Request> &requests,
             const std::vector<scheduler::Tenant> &tenants, uint64_t seed)
{
    if (tenants.empty())
        return;
    std::vector<double> cumulative(tenants.size(), 0.0);
    bool explicit_mix = tenants.front().mix >= 0.0;
    double total = 0.0;
    for (const scheduler::Tenant &tenant : tenants)
        total += explicit_mix ? tenant.mix : tenant.weight;
    double acc = 0.0;
    for (size_t t = 0; t < tenants.size(); ++t) {
        acc += (explicit_mix ? tenants[t].mix : tenants[t].weight) /
               total;
        cumulative[t] = acc;
    }
    Rng tenant_rng = Rng(seed).fork(0x74656e616e74ULL);
    for (trace::Request &req : requests) {
        double u = tenant_rng.nextDouble();
        int t = 0;
        while (t + 1 < static_cast<int>(cumulative.size()) &&
               u >= cumulative[static_cast<size_t>(t)]) {
            ++t;
        }
        req.tenant = t;
    }
}

sim::SimMetrics
runExperiment(const Deployment &deployment,
              scheduler::RequestScheduler &scheduler,
              const RunConfig &config)
{
    sim::ClusterSimulator simulator(
        deployment.clusterSpec(), deployment.profiler(),
        deployment.placement(), scheduler, config.simulation);
    auto requests = makeTrace(deployment, config);
    return simulator.run(requests);
}

} // namespace helix
