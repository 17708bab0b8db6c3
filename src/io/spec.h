/**
 * @file
 * The `experiment v1` declarative experiment-spec format.
 *
 * An experiment spec is a line-oriented text file (same grammar family
 * as `cluster v1` / `placement v1`: one record per line, `#` comments,
 * whitespace-separated tokens) that names every part of a sweep via
 * the src/exp registries instead of compiled code:
 *
 *   experiment v1
 *   name fig6
 *   seed 42
 *   warmup 1              # seconds excluded from metrics
 *   measure 3             # measurement window, seconds
 *   planner-budget 0.05   # wall-clock budget for budgeted planners
 *   output csv            # csv | json
 *   cluster single24      # sweep axis: cluster registry names
 *   model llama30b        # sweep axis: model registry names
 *   system helix helix helix        # label, planner, scheduler
 *   system swarm swarm swarm
 *   scenario offline
 *   scenario online-peak fraction=0.75 seed=43
 *
 * Each `system` line declares one labeled planner+scheduler pair, as
 * the paper's figure comparisons do; every system runs on every
 * cluster, model, and scenario. Scenario lines carry `key=value`
 * options inline (see docs/SCENARIOS.md for the catalog and
 * semantics). Every key is declared once, with its kind, range,
 * default and error message, in the key table in src/io/spec.cpp.
 *
 * This header is pure syntax: names are kept as strings with their
 * source lines. Registry resolution and execution live in
 * src/exp/spec.h, so `helixctl validate` can report line-numbered
 * errors for unknown names as well as grammar violations.
 */

#ifndef HELIX_IO_SPEC_H
#define HELIX_IO_SPEC_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "io/serialization.h"
#include "scheduler/fair_share.h"
#include "util/compare.h"

namespace helix {
namespace io {

/** A registry name plus the spec line it came from. */
struct SpecName
{
    std::string value;
    int line = 0;

    bool operator==(const SpecName &other) const
    {
        return value == other.value;
    }
};

/** One `system <label> <planner> <scheduler>` line. */
struct SystemSpec
{
    std::string label;
    std::string planner;
    std::string scheduler;
    int line = 0;
};

/**
 * One churn event from a `fail=<node>@<fraction>` or
 * `recover=<node>@<fraction>` scenario option (churn scenarios only;
 * repeatable, in declaration order).
 */
struct ChurnEventSpec
{
    /** True for `fail=`, false for `recover=`. */
    bool fail = true;
    int node = -1;
    /** Event time as a fraction of (warmup + measure), in [0, 1]. */
    double atFraction = 0.0;
    int line = 0;

    bool operator==(const ChurnEventSpec &other) const
    {
        // Exact: identical spec text parses to identical values.
        return fail == other.fail && node == other.node &&
               sameValue(atFraction, other.atFraction);
    }
};

/**
 * One `tenant <name> weight=<w> [mix=<f>] [slo-ttft=<s>]
 * [slo-tpot=<s>]` line (fair-share serving; see docs/SCENARIOS.md):
 * the tenant it declares, handed to the simulator as is, and its
 * line. An option the line leaves out keeps scheduler::Tenant's
 * default.
 */
struct TenantSpec
{
    scheduler::Tenant tenant;
    int line = 0;
};

/** One `scenario <kind> [key=value ...]` line. */
struct ScenarioSpec
{
    std::string kind;
    /** Options in declaration order (serialization round-trips). */
    std::vector<std::pair<std::string, double>> options;
    /** Churn schedule (`fail=`/`recover=` options, declaration
     *  order). Only populated for kind == "churn". */
    std::vector<ChurnEventSpec> events;
    int line = 0;

    [[nodiscard]] bool has(const std::string &key) const;
    /** The option's value on this line, else its default from the
     *  key table, which the key must declare. */
    [[nodiscard]] double get(const std::string &key) const;
};

/**
 * Largest planner budget accepted, in seconds (one day): the top of
 * `planner-budget`'s range and of `helixctl plan --budget`. The
 * budgeted planners search until it runs out.
 */
constexpr double kMaxPlannerBudgetS = 86400.0;

/** A parsed `experiment v1` file. */
struct ExperimentSpec
{
    std::string name = "experiment";
    /** Emitter for `helixctl run`: "csv" or "json". */
    std::string output = "csv";
    uint64_t seed = 42;
    /** Default warmup/measure windows, overridable per scenario. */
    double warmupS = 30.0;
    double measureS = 120.0;
    /** Wall-clock budget handed to budgeted planners, at most
     *  kMaxPlannerBudgetS. */
    double plannerBudgetS = 2.0;
    /** Fair-share starvation tolerance in [0, 1]: a demanding tenant
     *  below this fraction of its fair share is starving. */
    double starvationTolerance = 0.8;
    /** Seconds a tenant may starve before an over-share tenant's
     *  newest in-flight request is preempted. */
    double preemptionTimeoutS = 5.0;

    /** Declared tenants (empty = one implicit tenant). The run has
     *  one admission queue; arbitration only with two or more
     *  tenants. */
    std::vector<TenantSpec> tenants;

    /** Clusters, models and systems, each name declared once. */
    std::vector<SpecName> clusters;
    std::vector<SpecName> models;
    std::vector<SystemSpec> systems;
    std::vector<ScenarioSpec> scenarios;
};

/** Serialize a spec (comments are not preserved). */
[[nodiscard]] std::string experimentToString(const ExperimentSpec &spec);

/**
 * Parse an `experiment v1` file; on failure returns nullopt and fills
 * @p error. Grammar-level validation only (the header, directive
 * arity, numeric fields and their declared ranges, known directives,
 * known scenario kinds, repeated cluster, model and system names,
 * and the presence of clusters, models, systems and scenarios).
 * Registry names are not resolved here; see exp::validateSpec.
 */
[[nodiscard]] std::optional<ExperimentSpec> experimentFromString(
    const std::string &text, ParseError &error);

/** The scenario kinds the format accepts (see docs/SCENARIOS.md). */
[[nodiscard]] const std::vector<std::string> &scenarioKinds();

/** Option keys accepted by @p kind (common keys included). */
[[nodiscard]] std::vector<std::string> scenarioOptionKeys(const std::string &kind);

/** Option keys accepted by `tenant` lines. */
[[nodiscard]] std::vector<std::string> tenantOptionKeys();

} // namespace io
} // namespace helix

#endif // HELIX_IO_SPEC_H
