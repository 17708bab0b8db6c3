/**
 * @file
 * Mixed-integer linear programming via branch-and-bound.
 *
 * This module replaces the Gurobi dependency of the original Helix
 * implementation, as a test oracle for the placement MILP. It supports
 * the features the paper's planner relies on (Sec. 4.5): warm-start
 * hints from heuristic solutions, a user-supplied objective upper
 * bound for early stopping, time budgets, and incumbent/bound
 * reporting over time (used to reproduce Fig. 12).
 */

#ifndef HELIX_ORACLE_BRANCH_AND_BOUND_H
#define HELIX_ORACLE_BRANCH_AND_BOUND_H

#include <functional>
#include <optional>
#include <vector>

#include "oracle/simplex.h"

namespace helix {
namespace milp {

/** Outcome of a MILP solve. */
enum class MilpStatus {
    /** Incumbent proved optimal (within gap tolerance). */
    Optimal,
    /** Search stopped early (time/node limit) with a feasible incumbent. */
    Feasible,
    /** Problem proved infeasible. */
    Infeasible,
    /** Search stopped with no feasible solution found. */
    Unknown,
};

/** Human-readable name of a MilpStatus. */
const char *toString(MilpStatus status);

/**
 * A mixed-integer linear program in maximization form. Wraps an
 * LpProblem and marks a subset of the variables as integral.
 */
class MilpProblem
{
  public:
    /** Add a continuous variable. @return variable index. */
    int addContinuous(double lower, double upper, double objective);

    /** Add a general integer variable. @return variable index. */
    int addInteger(double lower, double upper, double objective);

    /** Add a 0/1 variable. @return variable index. */
    int addBinary(double objective);

    /** Add a linear constraint (see lp::LpProblem::addConstraint). */
    void addConstraint(std::vector<std::pair<int, double>> terms,
                       lp::Relation relation, double rhs);

    int numVariables() const { return relaxation.numVariables(); }
    int numConstraints() const { return relaxation.numConstraints(); }
    bool isIntegral(int var) const { return integral[var]; }

    /** The LP relaxation (integrality dropped). */
    const lp::LpProblem &lp() const { return relaxation; }

    /**
     * Check whether an assignment satisfies every constraint, bound,
     * and integrality requirement within @p tol.
     */
    bool isFeasible(const std::vector<double> &values,
                    double tol = 1e-6) const;

    /** Objective value of an assignment. */
    double objectiveValue(const std::vector<double> &values) const;

  private:
    lp::LpProblem relaxation;
    std::vector<bool> integral;
};

/** One (time, value) sample of solver progress, for Fig. 12. */
struct ProgressSample
{
    double seconds = 0.0;
    double incumbent = 0.0;
    double bound = 0.0;
};

/** Tunables for the branch-and-bound search. */
struct BnbConfig
{
    /** Wall-clock budget in seconds. */
    double timeLimitSeconds = 60.0;
    /** Maximum number of explored nodes. */
    long nodeLimit = 1000000;
    /**
     * Known upper bound on the objective (Helix uses total cluster
     * compute divided by layer count). The solver stops as soon as the
     * incumbent is within earlyStopFraction of this bound.
     */
    std::optional<double> objectiveUpperBound;
    /** Early-stop closeness threshold against objectiveUpperBound. */
    double earlyStopFraction = 0.995;
    /**
     * Warm-start assignments (from heuristic placements). Each is
     * checked for feasibility and, if feasible, becomes the initial
     * incumbent.
     */
    std::vector<std::vector<double>> warmStarts;
    /** Record incumbent/bound progress samples when true. */
    bool recordProgress = false;
};

/** Result of a branch-and-bound solve. */
struct MilpResult
{
    MilpStatus status = MilpStatus::Unknown;
    double objective = 0.0;
    std::vector<double> values;
    /** Best proven upper bound on the optimum. */
    double bound = 0.0;
    long nodesExplored = 0;
    long lpIterations = 0;
    double wallSeconds = 0.0;
    std::vector<ProgressSample> progress;
};

/**
 * Best-first branch-and-bound over the LP relaxation, branching on the
 * most fractional integer variable.
 */
class BranchAndBound
{
  public:
    /** Solve @p problem under @p config. */
    MilpResult solve(const MilpProblem &problem,
                     const BnbConfig &config = {}) const;
};

} // namespace milp
} // namespace helix

#endif // HELIX_ORACLE_BRANCH_AND_BOUND_H
