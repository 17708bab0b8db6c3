#include "exp/spec.h"

#include <algorithm>

namespace helix {
namespace exp {

using io::joinNames;

namespace {

void
setError(io::ParseError *error, int line, std::string message)
{
    if (error) {
        error->line = line;
        error->message = std::move(message);
    }
}

/** A resolved planner+scheduler pair with its row label. */
struct ResolvedSystem
{
    std::string label;
    std::string planner;
    SchedulerKind scheduler = SchedulerKind::Helix;
};

/**
 * The systems a spec runs per (cluster, model): either its `system`
 * lines verbatim, or the planner x scheduler cartesian product with
 * "<planner>/<scheduler>" labels.
 */
std::vector<ResolvedSystem>
resolveSystems(const io::ExperimentSpec &spec)
{
    std::vector<ResolvedSystem> systems;
    if (!spec.systems.empty()) {
        for (const io::SystemSpec &system : spec.systems) {
            ResolvedSystem resolved;
            resolved.label = system.label;
            resolved.planner = system.planner;
            resolved.scheduler =
                *schedulerKindByName(system.scheduler);
            systems.push_back(std::move(resolved));
        }
        return systems;
    }
    for (const io::SpecName &planner : spec.planners) {
        for (const io::SpecName &sched : spec.schedulers) {
            ResolvedSystem resolved;
            resolved.label = planner.value + "/" + sched.value;
            resolved.planner = planner.value;
            resolved.scheduler = *schedulerKindByName(sched.value);
            systems.push_back(std::move(resolved));
        }
    }
    return systems;
}

} // namespace

bool
validateSpec(const io::ExperimentSpec &spec, io::ParseError *error)
{
    int min_nodes = -1;
    for (const io::SpecName &name : spec.clusters) {
        // Node-count lookup only: resolving a generated cluster here
        // would materialize its O(nodes^2) link matrix just to
        // validate the name.
        auto num_nodes = clusterNodeCountByName(name.value);
        if (!num_nodes) {
            setError(error, name.line,
                     "unknown cluster '" + name.value + "' (known: " +
                         joinNames(clusterNames()) + ")");
            return false;
        }
        if (min_nodes < 0 || *num_nodes < min_nodes)
            min_nodes = *num_nodes;
    }
    for (const io::SpecName &name : spec.models) {
        if (!modelByName(name.value)) {
            setError(error, name.line,
                     "unknown model '" + name.value + "' (known: " +
                         joinNames(modelNames()) + ")");
            return false;
        }
    }
    for (const io::SpecName &name : spec.planners) {
        if (!plannerByName(name.value, 0.01)) {
            setError(error, name.line,
                     "unknown planner '" + name.value + "' (known: " +
                         joinNames(plannerNames()) + ")");
            return false;
        }
    }
    for (const io::SpecName &name : spec.schedulers) {
        if (!schedulerKindByName(name.value)) {
            setError(error, name.line,
                     "unknown scheduler '" + name.value +
                         "' (known: " + joinNames(schedulerNames()) +
                         ")");
            return false;
        }
    }
    for (const io::SystemSpec &system : spec.systems) {
        if (!plannerByName(system.planner, 0.01)) {
            setError(error, system.line,
                     "system '" + system.label +
                         "' names unknown planner '" + system.planner +
                         "' (known: " + joinNames(plannerNames()) +
                         ")");
            return false;
        }
        if (!schedulerKindByName(system.scheduler)) {
            setError(error, system.line,
                     "system '" + system.label +
                         "' names unknown scheduler '" +
                         system.scheduler + "' (known: " +
                         joinNames(schedulerNames()) + ")");
            return false;
        }
    }
    for (const io::ScenarioSpec &scenario : spec.scenarios) {
        // Event schedule: every event's node must exist in every
        // declared cluster, times must be fractions declared in
        // non-decreasing order, and the fail/recover alternation must
        // be consistent per node (no double fail, no recover of a
        // node that never failed).
        double prev_at = -1.0;
        std::vector<int> dead;
        for (const io::ChurnEventSpec &event : scenario.events) {
            const std::string what =
                std::string(event.fail ? "fail=" : "recover=") +
                std::to_string(event.node) + "@" +
                std::to_string(event.atFraction);
            if (event.node < 0 ||
                (min_nodes >= 0 && event.node >= min_nodes)) {
                setError(error, event.line,
                         "churn event node index " +
                             std::to_string(event.node) +
                             " is out of range for the smallest "
                             "declared cluster (" +
                             std::to_string(min_nodes) + " nodes)");
                return false;
            }
            if (event.atFraction < 0.0 || event.atFraction > 1.0) {
                setError(error, event.line,
                         "churn event " + what +
                             " must occur at a fraction of the run "
                             "in [0, 1]");
                return false;
            }
            if (event.atFraction < prev_at) {
                setError(error, event.line,
                         "churn event " + what +
                             " is out of order: events must be "
                             "declared in non-decreasing time order");
                return false;
            }
            prev_at = event.atFraction;
            auto found =
                std::find(dead.begin(), dead.end(), event.node);
            if (event.fail) {
                if (found != dead.end()) {
                    setError(error, event.line,
                             "churn event " + what +
                                 " fails a node that is already "
                                 "failed");
                    return false;
                }
                dead.push_back(event.node);
            } else {
                if (found == dead.end()) {
                    setError(error, event.line,
                             "churn event " + what +
                                 " recovers a node with no earlier "
                                 "fail event");
                    return false;
                }
                dead.erase(found);
            }
        }
    }
    return true;
}

RunConfig
scenarioRunConfig(const io::ExperimentSpec &spec,
                  const io::ScenarioSpec &scenario,
                  double offline_peak)
{
    Scenario catalog;
    if (scenario.kind == "offline") {
        catalog = scenarios::offline();
    } else if (scenario.kind == "online") {
        catalog = scenarios::onlineDiurnal();
    } else if (scenario.kind == "bursty") {
        catalog = scenarios::bursty(scenario.get("multiplier"),
                                    scenario.get("burst"),
                                    scenario.get("gap"));
    } else if (scenario.kind == "churn") {
        std::vector<Scenario::ChurnEventFrac> events;
        events.reserve(scenario.events.size());
        for (const io::ChurnEventSpec &event : scenario.events) {
            events.push_back({event.fail ? sim::ChurnEvent::Kind::Fail
                                         : sim::ChurnEvent::Kind::Recover,
                              event.node, event.atFraction});
        }
        catalog = scenarios::churnSchedule(
            std::move(events), scenario.get("online") != 0.0);
        catalog.driftThreshold = scenario.get("drift");
    } else { // online-peak
        catalog.name = "online-peak";
        catalog.online = true;
    }
    catalog.utilization = scenario.get("utilization");

    // Scenario windows and seeds override the spec's top-level ones.
    double warmup =
        scenario.has("warmup") ? scenario.get("warmup") : spec.warmupS;
    double measure = scenario.has("measure") ? scenario.get("measure")
                                             : spec.measureS;
    uint64_t seed = scenario.has("seed")
                        ? static_cast<uint64_t>(scenario.get("seed"))
                        : spec.seed;
    RunConfig run = catalog.toRun(warmup, measure, seed);
    sim::SimConfig &config = run.simulation;
    // Tenancy: two or more tenant lines activate fair-share admission
    // and tenant-labeled trace generation; zero or one leaves the run
    // byte-identical to the pre-tenancy path.
    if (spec.tenants.size() >= 2) {
        config.tenants.reserve(spec.tenants.size());
        for (const io::TenantSpec &tenant : spec.tenants) {
            scheduler::Tenant cls;
            cls.name = tenant.name;
            cls.weight = tenant.weight;
            cls.mix = tenant.mix;
            cls.sloTtftS = tenant.sloTtftS;
            cls.sloTpotS = tenant.sloTpotS;
            config.tenants.push_back(std::move(cls));
        }
        config.starvationTolerance = spec.starvationTolerance;
        config.preemptionTimeoutS = spec.preemptionTimeoutS;
    }
    if (scenario.kind == "online-peak") {
        // Sec. 6.2: the online arrival rate is `fraction` of the
        // measured offline peak, in requests/s of mean output length.
        run.requestRate = scenario.get("fraction") * offline_peak /
                          run.lengths.targetMeanOutput;
    }
    return run;
}

std::optional<std::vector<JobResult>>
runSpec(const io::ExperimentSpec &spec, io::ParseError *error,
        RunnerOptions options)
{
    if (!validateSpec(spec, error))
        return std::nullopt;

    if (options.numThreads <= 0)
        options.numThreads = spec.threads;
    ExperimentRunner runner(options);
    std::vector<ResolvedSystem> systems = resolveSystems(spec);

    std::vector<JobResult> results;
    for (const io::SpecName &cluster_name : spec.clusters) {
        auto clus = clusterByName(cluster_name.value);
        for (const io::SpecName &model_name : spec.models) {
            auto model_spec = modelByName(model_name.value);

            // Plan each distinct planner once per (cluster, model);
            // every system and scenario job naming it shares the
            // deployment const (schedulers don't affect planning).
            std::vector<std::string> planner_order;
            std::vector<size_t> system_deployment(systems.size());
            for (size_t i = 0; i < systems.size(); ++i) {
                auto found = std::find(planner_order.begin(),
                                       planner_order.end(),
                                       systems[i].planner);
                system_deployment[i] =
                    static_cast<size_t>(found - planner_order.begin());
                if (found == planner_order.end())
                    planner_order.push_back(systems[i].planner);
            }
            std::vector<Deployment> deployments;
            deployments.reserve(planner_order.size());
            for (const std::string &planner_name : planner_order) {
                // The thread count also caps a portfolio planner's
                // member race, so `--threads 1` runs serially and a
                // spec's results stay reproducible either way.
                auto planner = plannerByName(planner_name,
                                             spec.plannerBudgetS,
                                             options.numThreads);
                deployments.emplace_back(*clus, *model_spec,
                                         *planner);
            }

            double offline_peak = 0.0;
            for (const io::ScenarioSpec &scenario : spec.scenarios) {
                RunConfig run =
                    scenarioRunConfig(spec, scenario, offline_peak);
                std::vector<Job> jobs;
                jobs.reserve(systems.size());
                for (size_t i = 0; i < systems.size(); ++i) {
                    Job job;
                    job.label = cluster_name.value + "/" +
                                model_name.value + "/" +
                                systems[i].label + "/" +
                                scenario.kind;
                    job.deployment =
                        &deployments[system_deployment[i]];
                    job.scheduler = systems[i].scheduler;
                    job.run = run;
                    jobs.push_back(std::move(job));
                }
                std::vector<JobResult> batch = runner.run(jobs);
                if (scenario.kind == "offline" && !batch.empty()) {
                    offline_peak =
                        batch.front().metrics.decodeThroughput;
                }
                for (JobResult &result : batch)
                    results.push_back(std::move(result));
            }
        }
    }
    return results;
}

} // namespace exp
} // namespace helix
