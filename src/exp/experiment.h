/**
 * @file
 * Experiment-runner subsystem: declarative sweeps over
 * (cluster x placement x scheduler x trace scenario) configurations,
 * executed on a thread pool with structured JSON/CSV output.
 *
 * `helixctl run` drives this engine from a spec file (exp::runSpec,
 * src/exp/spec.h), which declares the systems under test and hands
 * the jobs to runJobs; it executes each ClusterSimulator instance on
 * its own worker. Every job is self-contained (its own scheduler and
 * simulator over a shared const Deployment), so results are
 * byte-identical to invoking runExperiment() directly, regardless of
 * thread count or completion order.
 */

#ifndef HELIX_EXP_EXPERIMENT_H
#define HELIX_EXP_EXPERIMENT_H

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/helix.h"

namespace helix {
namespace exp {

/** One unit of work: simulate a deployment under one configuration. */
struct Job
{
    /** Row label in the emitted results. */
    std::string label;
    /** Planned deployment (non-owning; must outlive the run). */
    const Deployment *deployment = nullptr;
    SchedulerKind scheduler = SchedulerKind::Helix;
    RunConfig run;
};

/** Result of one job. */
struct JobResult
{
    std::string label;
    std::string cluster;
    std::string model;
    std::string planner;
    std::string scheduler;
    std::string arrivals;
    double plannedThroughput = 0.0;
    sim::SimMetrics metrics;
    /** Wall-clock seconds the simulation took. */
    double wallSeconds = 0.0;
};

/**
 * Run every job, one task per job, on helix::runTasks with @p threads
 * workers (0 = the host's cores). Results align with the input order
 * and do not depend on the number of workers.
 */
[[nodiscard]] std::vector<JobResult> runJobs(const std::vector<Job> &jobs,
                                             int threads = 0);

/** Structured emitters for downstream analysis/plotting. */
[[nodiscard]] std::string resultsToJson(const std::vector<JobResult> &results);
[[nodiscard]] std::string resultsToCsv(const std::vector<JobResult> &results);

// --- Registries (declarative configs name their parts) -------------

/**
 * "single24", "geo24", "hetero42", "planner10", plus generated
 * clusters named "gen:<preset>:<nodes>[:<seed>]" (seed defaults to
 * 42) — e.g. "gen:two-tier:300:7". Presets: cluster::gen::presetNames.
 */
[[nodiscard]] std::optional<cluster::ClusterSpec> clusterByName(
    const std::string &name);

/** "llama30b", "llama70b", "gpt3-175b", "grok1-314b", "llama3-405b". */
[[nodiscard]] std::optional<model::TransformerSpec> modelByName(
    const std::string &name);

/**
 * "helix" (budgeted: the flow search on the full placement graph),
 * "helix-partitioned" (budgeted, region-partitioned), "swarm",
 * "petals", "sp", "sp+" and "uniform".
 *
 * @param threads the workers helix::runTasks gives the flow-search
 *        chains of "helix" and "helix-partitioned" (0 = the host's
 *        cores; never more than FlowSearch::kChains, one chain per
 *        worker at most). Ignored by every other planner.
 *        `helixctl plan --threads` and `helixctl run --threads` land
 *        here.
 * @return a fresh planner instance, or nullptr for unknown names.
 */
[[nodiscard]] std::unique_ptr<placement::Planner> plannerByName(
    const std::string &name, double planner_budget_s, int threads = 0);

/** Scheduler kind from its toString name. */
[[nodiscard]] std::optional<SchedulerKind> schedulerKindByName(
    const std::string &name);

/**
 * Registry enumeration (for `helixctl list` and spec validation).
 * Every returned name resolves through the matching *ByName lookup;
 * tests/test_spec.cpp pins that invariant.
 */
[[nodiscard]] const std::vector<std::string> &clusterNames();
[[nodiscard]] const std::vector<std::string> &modelNames();
[[nodiscard]] const std::vector<std::string> &plannerNames();
[[nodiscard]] const std::vector<std::string> &schedulerNames();

} // namespace exp
} // namespace helix

#endif // HELIX_EXP_EXPERIMENT_H
