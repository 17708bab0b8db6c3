/**
 * @file
 * Linear programming via the two-phase primal simplex method.
 *
 * This is the LP engine underneath the MILP branch-and-bound solver
 * (oracle/branch_and_bound.h) that replaces Gurobi in our reproduction. The
 * implementation is a dense-tableau two-phase simplex with Bland's
 * anti-cycling rule as a fallback; Helix's MILP relaxations are small
 * (hundreds to a few thousand variables), so dense algebra is adequate.
 */

#ifndef HELIX_ORACLE_SIMPLEX_H
#define HELIX_ORACLE_SIMPLEX_H

#include <utility>
#include <vector>

namespace helix {
namespace lp {

/** Relation of a linear constraint's left side to its right side. */
enum class Relation {
    LessEq,
    GreaterEq,
    Equal,
};

/** Outcome of an LP solve. */
enum class LpStatus {
    Optimal,
    Infeasible,
    Unbounded,
    IterLimit,
};

/** Human-readable name of an LpStatus. */
const char *toString(LpStatus status);

/** One linear constraint: sum(coef * var) REL rhs. */
struct Constraint
{
    std::vector<std::pair<int, double>> terms;
    Relation relation = Relation::LessEq;
    double rhs = 0.0;
};

/**
 * A linear program in maximization form with per-variable bounds.
 * Variables may have finite or infinite (kInfinity) upper bounds and
 * arbitrary finite lower bounds.
 */
class LpProblem
{
  public:
    static constexpr double kInfinity = 1e30;

    /**
     * Add a decision variable.
     * @param lower lower bound (finite)
     * @param upper upper bound (kInfinity for none)
     * @param objective coefficient in the maximization objective
     * @return the variable's index
     */
    int addVariable(double lower, double upper, double objective);

    /** Add a linear constraint over previously added variables. */
    void addConstraint(std::vector<std::pair<int, double>> terms,
                       Relation relation, double rhs);

    int numVariables() const { return static_cast<int>(lowers.size()); }
    int numConstraints() const
    {
        return static_cast<int>(constraints.size());
    }

    double lowerBound(int var) const { return lowers[var]; }
    double upperBound(int var) const { return uppers[var]; }
    double objectiveCoef(int var) const { return objectives[var]; }
    const Constraint &constraint(int row) const
    {
        return constraints[row];
    }

    /** Tighten a variable's bounds (used by branch-and-bound). */
    void setBounds(int var, double lower, double upper);

  private:
    std::vector<double> lowers;
    std::vector<double> uppers;
    std::vector<double> objectives;
    std::vector<Constraint> constraints;
};

/** Result of solving an LpProblem. */
struct LpResult
{
    LpStatus status = LpStatus::Infeasible;
    /** Objective value (maximization). Valid only when Optimal. */
    double objective = 0.0;
    /** Value of every variable. Valid only when Optimal. */
    std::vector<double> values;
    /** Simplex pivots performed across both phases. */
    long iterations = 0;
};

/**
 * Dense two-phase primal simplex.
 *
 * Usage: construct once, call solve() with any LpProblem. The solver
 * keeps no state between calls.
 */
class SimplexSolver
{
  public:
    /** Upper limit on total pivots before giving up. */
    long maxIterations = 200000;

    /** Numerical tolerance for reduced costs and ratio tests. */
    double tolerance = 1e-7;

    /** Solve @p problem and return the outcome. */
    LpResult solve(const LpProblem &problem) const;
};

} // namespace lp
} // namespace helix

#endif // HELIX_ORACLE_SIMPLEX_H
