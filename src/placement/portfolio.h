/**
 * @file
 * Time-budgeted planner portfolio.
 *
 * No single placement planner dominates across heterogeneity regimes:
 * the budgeted helix search wins on the paper's mixed clusters, but on
 * a homogeneous cluster uniform partitioning is already optimal, and
 * at high node counts the partitioned planner is the only search that
 * finishes. The portfolio runs every member planner concurrently under
 * one wall-clock budget, scores each candidate placement with the
 * max-flow throughput bound (the paper's own objective, Sec. 4.3 — no
 * simulation needed), and returns the argmax together with a
 * per-planner report (time, bound, feasibility).
 *
 * Budget semantics (normative; see docs/PLANNERS.md):
 *
 *  - `budgetS` is the wall-clock budget for the whole portfolio,
 *    search plus scoring, assuming members run concurrently: plan()
 *    runs one task per member on helix::runTasks, by default with
 *    one worker per member.
 *  - Each member receives a *search* budget of
 *    (budgetS - elapsed-at-start) * 0.9: the 10% reserve keeps the
 *    final max-flow scoring of that member's placement inside the
 *    overall budget. Deterministic heuristics ignore the budget
 *    (they are effectively instantaneous); budgeted members (helix,
 *    helix-pruned, helix-partitioned) honor it as their internal time
 *    limit.
 *  - A member that still overruns is not cancelled (placements are
 *    not preemptible); its entry reports the real wallSeconds so
 *    overruns are visible.
 *
 * A member whose planner throws does not stop the others: plan()
 * rethrows its exception once every member has run.
 *
 * Selection is deterministic and independent of the thread count: entries are slotted by member index, feasible
 * placements (placementValid) beat infeasible ones, higher flow bound
 * beats lower, and ties go to the earliest member. With deterministic
 * members the chosen placement is therefore byte-identical across
 * thread counts (pinned in tests/test_portfolio.cpp).
 */

#ifndef HELIX_PLACEMENT_PORTFOLIO_H
#define HELIX_PLACEMENT_PORTFOLIO_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "placement/planners.h"

namespace helix {
namespace placement {

/**
 * One portfolio member: a registry-style name plus a factory building
 * the planner with a given search budget. The factory runs on the
 * portfolio's worker threads and must be safe to call concurrently
 * with the other members' factories.
 */
struct PortfolioMember
{
    std::string name;
    std::function<std::unique_ptr<Planner>(double search_budget_s)>
        make;
};

/** Configuration of a planner portfolio. */
struct PortfolioConfig
{
    /** Wall-clock budget for the whole portfolio, in seconds. */
    double budgetS = 2.0;
};

/** Outcome of one member (the "per-planner report" row). */
struct PortfolioEntry
{
    std::string planner;
    ModelPlacement placement;
    /** Max-flow throughput bound of the placement, tokens/s. */
    double flowBound = 0.0;
    /** Wall-clock seconds the member spent (search + scoring). */
    double wallSeconds = 0.0;
    /** Whether the placement passes placementValid. */
    bool feasible = false;
};

/** Diagnostics from the most recent PortfolioPlanner::plan() call. */
struct PortfolioReport
{
    /** One entry per member, in member order. */
    std::vector<PortfolioEntry> entries;
    /** Index of the chosen entry; -1 when there are no members. */
    int bestIndex = -1;
    double budgetS = 0.0;
    /** Wall-clock seconds for the whole portfolio. */
    double wallSeconds = 0.0;
};

/**
 * Max-flow throughput bound of @p placement: the max source→sink flow
 * of the placement graph with no pruning filter (the paper's Sec. 4.3
 * objective). This is the
 * portfolio's common yardstick — every candidate is scored on the
 * same unpruned graph regardless of which restrictions its planner
 * searched under. An infeasible placement (some layer uncovered) has
 * no source→sink path and scores 0.
 */
double flowThroughputBound(const cluster::ClusterSpec &cluster,
                           const cluster::Profiler &profiler,
                           const ModelPlacement &placement);

/**
 * The portfolio planner. With no members, plan() returns an empty
 * placement and the report has bestIndex == -1.
 */
class PortfolioPlanner : public Planner
{
  public:
    /** @p threads: workers racing the members (0 = one per member). */
    explicit PortfolioPlanner(std::vector<PortfolioMember> members,
                              PortfolioConfig config = {},
                              int threads = 0);

    std::string name() const override { return "portfolio"; }

    ModelPlacement plan(const cluster::ClusterSpec &cluster,
                        const cluster::Profiler &profiler) override;

    /** Diagnostics for the last plan() call. */
    const PortfolioReport &report() const { return lastReport; }

  private:
    std::vector<PortfolioMember> members;
    PortfolioConfig cfg;
    int threads;
    PortfolioReport lastReport;
};

} // namespace placement
} // namespace helix

#endif // HELIX_PLACEMENT_PORTFOLIO_H
