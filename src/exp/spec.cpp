#include "exp/spec.h"

#include <algorithm>
#include <cstdio>

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

/**
 * The random draws a bursty trace at @p rate requests/s makes beyond
 * its requests (trace::BurstyArrivals): a thinning candidate at the
 * burst rate, base x multiplier, and a sojourn per state change, two
 * per mean burst-plus-gap cycle. 0 for every other arrival kind and
 * for a zero rate, whose trace is empty.
 */
double
burstyDraws(const RunConfig &run, double rate)
{
    if (run.arrivals != ArrivalKind::Bursty || !(rate > 0.0))
        return 0.0;
    const double cycle_s = run.burstMeanS + run.burstGapS;
    // makeTrace's base rate, whose long-run mean is @p rate.
    const double base =
        rate / (1.0 + run.burstMeanS / cycle_s * (run.burstMultiplier - 1.0));
    const double seconds = traceSeconds(run);
    return base * run.burstMultiplier * seconds + 2.0 * seconds / cycle_s;
}

} // namespace

bool
validateSpec(const io::ExperimentSpec &spec, io::ParseError *error)
{
    int min_nodes = -1;
    for (const io::SpecName &name : spec.clusters) {
        auto clus = clusterByName(name.value);
        if (!clus) {
            setError(error, name.line,
                     "unknown cluster '" + name.value + "' (known: " +
                         joinNames(clusterNames()) + ")");
            return false;
        }
        if (min_nodes < 0 || clus->numNodes() < min_nodes)
            min_nodes = clus->numNodes();
    }
    for (const io::SpecName &name : spec.models) {
        if (!modelByName(name.value)) {
            setError(error, name.line,
                     "unknown model '" + name.value + "' (known: " +
                         joinNames(modelNames()) + ")");
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
    // Sec. 6.2: offline runs oversubscribe with Poisson arrivals at
    // 3x the planned peak (the RunConfig defaults); online runs follow
    // a diurnal curve at 75% of it. Churn is online unless its line
    // says online=0 (the registry admits only 0 or 1 for the flag).
    RunConfig run;
    bool online = scenario.kind == "churn" ? scenario.get("online") > 0.5
                                           : scenario.kind != "offline";
    if (online) {
        run.arrivals = ArrivalKind::Diurnal;
        run.utilization = 0.75;
    }
    if (scenario.kind == "bursty") {
        run.arrivals = ArrivalKind::Bursty;
        run.burstMultiplier = scenario.get("multiplier");
        run.burstMeanS = scenario.get("burst");
        run.burstGapS = scenario.get("gap");
    }
    if (scenario.has("utilization"))
        run.utilization = scenario.get("utilization");
    if (scenario.kind == "online-peak") {
        // The online arrival rate is `fraction` of the measured
        // offline peak, in requests/s of mean output length.
        run.requestRate = scenario.get("fraction") * offline_peak /
                          trace::LengthModel().targetMeanOutput;
    }

    // Scenario windows and seeds override the spec's top-level ones.
    sim::SimConfig &config = run.simulation;
    config.warmupSeconds =
        scenario.has("warmup") ? scenario.get("warmup") : spec.warmupS;
    config.measureSeconds = scenario.has("measure")
                                ? scenario.get("measure")
                                : spec.measureS;
    run.seed = scenario.has("seed")
                   ? static_cast<uint64_t>(scenario.get("seed"))
                   : spec.seed;
    if (scenario.kind == "churn") {
        // Events land at fractions of the whole run horizon.
        config.driftThreshold = scenario.get("drift");
        for (const io::ChurnEventSpec &event : scenario.events) {
            config.churnEvents.push_back(
                {event.fail ? sim::ChurnEvent::Kind::Fail
                            : sim::ChurnEvent::Kind::Recover,
                 event.node,
                 event.atFraction * (config.warmupSeconds +
                                     config.measureSeconds)});
        }
    }
    // Tenant lines label the trace and feed the simulator's admission
    // queue, which arbitrates only with two or more of them.
    config.tenants.reserve(spec.tenants.size());
    for (const io::TenantSpec &tenant : spec.tenants)
        config.tenants.push_back(tenant.tenant);
    config.starvationTolerance = spec.starvationTolerance;
    config.preemptionTimeoutS = spec.preemptionTimeoutS;
    return run;
}

std::optional<std::vector<JobResult>>
runSpec(const io::ExperimentSpec &spec, io::ParseError *error,
        int threads)
{
    if (!validateSpec(spec, error))
        return std::nullopt;

    const std::vector<io::SystemSpec> &systems = spec.systems;

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
                // The thread count also caps a helix search's chains,
                // so `--threads 1` plans on one thread.
                auto planner = plannerByName(planner_name,
                                             spec.plannerBudgetS,
                                             threads);
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
                    job.scheduler =
                        *schedulerKindByName(systems[i].scheduler);
                    job.run = run;
                    jobs.push_back(std::move(job));
                }
                // Request indices are int, and an infinite rate never
                // advances the arrivals: refuse the scenario unless its
                // trace holds fewer than 2^31 requests, and its
                // generator makes fewer than 2^31 draws.
                for (const Job &job : jobs) {
                    const double rate =
                        traceRequestRate(*job.deployment, run);
                    const double count = rate * traceSeconds(run);
                    const double draws = burstyDraws(run, rate);
                    if (count < 2147483648.0 && draws < 2147483648.0)
                        continue;
                    char text[160];
                    if (!(count < 2147483648.0)) {
                        std::snprintf(text, sizeof(text),
                                      "scenario '%s' asks for %g requests "
                                      "over its %g s trace; a trace holds "
                                      "fewer than 2^31",
                                      scenario.kind.c_str(), count,
                                      traceSeconds(run));
                    } else {
                        std::snprintf(text, sizeof(text),
                                      "scenario '%s' needs %g arrival "
                                      "draws over its %g s trace; a "
                                      "trace takes fewer than 2^31",
                                      scenario.kind.c_str(), draws,
                                      traceSeconds(run));
                    }
                    setError(error, scenario.line, text);
                    return std::nullopt;
                }
                std::vector<JobResult> batch = runJobs(jobs, threads);
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
