/**
 * @file
 * Semantics for `experiment v1` specs: registry resolution and
 * execution over the experiment runner.
 *
 * io::experimentFromString gives a syntactically valid ExperimentSpec
 * with names as strings; this layer resolves those names against the
 * exp registries (validateSpec) and executes the sweep (runSpec).
 *
 * Execution order is deterministic: for each (cluster, model) pair,
 * each distinct planner is planned once (schedulers don't affect
 * planning, so systems naming the same planner share the
 * deployment), then the scenarios run in declaration order, each as
 * one batch of per-system jobs on the thread pool. Batch boundaries
 * only order the work; per-job results are independent of worker
 * count (see runJobs).
 *
 * The `online-peak` scenario reproduces the paper's Sec. 6.2 online
 * methodology: its arrival rate is `fraction` of the decode
 * throughput the *first* system measured in the most recent offline
 * scenario of the same (cluster, model) group, divided by the mean
 * output length.
 */

#ifndef HELIX_EXP_SPEC_H
#define HELIX_EXP_SPEC_H

#include <optional>
#include <vector>

#include "exp/experiment.h"
#include "io/spec.h"

namespace helix {
namespace exp {

/**
 * Resolve every registry name in @p spec (clusters, models, and each
 * system's planner and scheduler) and check scenario applicability
 * (e.g. a churn scenario's node index must exist in every declared
 * cluster). On failure returns false and fills @p error with the
 * offending spec line. Does not plan or simulate anything.
 */
[[nodiscard]] bool validateSpec(const io::ExperimentSpec &spec,
                  io::ParseError *error = nullptr);

/**
 * Execute @p spec end-to-end. Results are ordered by
 * (cluster, model, scenario, system), with labels
 * "<cluster>/<model>/<system>/<scenario>". Returns nullopt and fills
 * @p error if validateSpec rejects the spec, or if a scenario's trace
 * would hold 2^31 or more requests or take as many random draws.
 *
 * @p threads worker threads run the jobs and cap a helix planner's
 * search threads (0 = hardware concurrency).
 */
[[nodiscard]] std::optional<std::vector<JobResult>> runSpec(
    const io::ExperimentSpec &spec, io::ParseError *error = nullptr,
    int threads = 0);

/**
 * Materialize one scenario line as a RunConfig, applying the spec's
 * defaults and the scenario's inline overrides. The only place a
 * scenario kind picks its arrival process, default utilization,
 * burst shape, churn times and drift threshold. @p offline_peak is
 * the reference decode throughput used by `online-peak` (ignored by
 * every other kind). Exposed for tests; runSpec uses this exact
 * function.
 */
[[nodiscard]] RunConfig scenarioRunConfig(const io::ExperimentSpec &spec,
                            const io::ScenarioSpec &scenario,
                            double offline_peak);

} // namespace exp
} // namespace helix

#endif // HELIX_EXP_SPEC_H
