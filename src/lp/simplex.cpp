#include "lp/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace helix {
namespace lp {

const char *
toString(LpStatus status)
{
    switch (status) {
      case LpStatus::Optimal:    return "optimal";
      case LpStatus::Infeasible: return "infeasible";
      case LpStatus::Unbounded:  return "unbounded";
      case LpStatus::IterLimit:  return "iteration-limit";
    }
    return "?";
}

int
LpProblem::addVariable(double lower, double upper, double objective)
{
    HELIX_ASSERT(lower <= upper);
    lowers.push_back(lower);
    uppers.push_back(upper);
    objectives.push_back(objective);
    return static_cast<int>(lowers.size() - 1);
}

void
LpProblem::addConstraint(std::vector<std::pair<int, double>> terms,
                         Relation relation, double rhs)
{
    for (const auto &[var, coef] : terms) {
        HELIX_ASSERT(var >= 0 && var < numVariables());
        (void)coef;
    }
    constraints.push_back({std::move(terms), relation, rhs});
}

void
LpProblem::setBounds(int var, double lower, double upper)
{
    HELIX_ASSERT(var >= 0 && var < numVariables());
    HELIX_ASSERT(lower <= upper);
    lowers[var] = lower;
    uppers[var] = upper;
}

namespace {

/**
 * Dense simplex working state. Columns: n shifted structural variables,
 * then slack/surplus columns, then artificial columns; the right-hand
 * side is stored separately.
 */
struct Tableau
{
    int rows = 0;
    int cols = 0; // structural + slack + artificial
    int numStructural = 0;
    int firstArtificial = 0;
    std::vector<std::vector<double>> a; // rows x cols
    std::vector<double> rhs;            // rows
    std::vector<int> basis;             // rows -> basic column

    double &at(int r, int c) { return a[r][c]; }
};

void
pivot(Tableau &t, std::vector<double> &zc, double &zval, int row, int col)
{
    double p = t.at(row, col);
    HELIX_ASSERT(std::fabs(p) > 1e-12);
    double inv = 1.0 / p;
    for (int c = 0; c < t.cols; ++c)
        t.at(row, c) *= inv;
    t.rhs[row] *= inv;
    for (int r = 0; r < t.rows; ++r) {
        if (r == row)
            continue;
        double factor = t.at(r, col);
        if (std::fabs(factor) < 1e-13)
            continue;
        for (int c = 0; c < t.cols; ++c)
            t.at(r, c) -= factor * t.at(row, c);
        t.at(r, col) = 0.0;
        t.rhs[r] -= factor * t.rhs[row];
    }
    double zfactor = zc[col];
    if (std::fabs(zfactor) > 1e-13) {
        for (int c = 0; c < t.cols; ++c)
            zc[c] -= zfactor * t.at(row, c);
        zc[col] = 0.0;
        zval -= zfactor * t.rhs[row];
    }
    t.basis[row] = col;
}

/**
 * Run the simplex loop on the tableau with the given reduced-cost row.
 * @param allow_artificial whether artificial columns may enter
 * @return status of the phase
 */
LpStatus
runSimplex(Tableau &t, std::vector<double> &zc, double &zval,
           bool allow_artificial, double tol, long max_iter,
           long &iterations)
{
    long phase_iterations = 0;
    long bland_threshold = 20L * (t.rows + t.cols) + 200;
    while (true) {
        if (iterations >= max_iter)
            return LpStatus::IterLimit;
        bool use_bland = phase_iterations > bland_threshold;
        int limit = allow_artificial ? t.cols : t.firstArtificial;
        // Entering column: most negative reduced cost (Dantzig), or
        // first negative (Bland) once cycling is suspected.
        int enter = -1;
        double best = -tol;
        for (int c = 0; c < limit; ++c) {
            if (zc[c] < best) {
                enter = c;
                if (use_bland)
                    break;
                best = zc[c];
            }
        }
        if (enter < 0)
            return LpStatus::Optimal;
        // Ratio test.
        int leave = -1;
        double best_ratio = std::numeric_limits<double>::max();
        for (int r = 0; r < t.rows; ++r) {
            double coef = t.at(r, enter);
            if (coef > tol) {
                double ratio = t.rhs[r] / coef;
                if (ratio < best_ratio - 1e-12 ||
                    (use_bland && ratio < best_ratio + 1e-12 &&
                     leave >= 0 && t.basis[r] < t.basis[leave])) {
                    best_ratio = ratio;
                    leave = r;
                }
            }
        }
        if (leave < 0)
            return LpStatus::Unbounded;
        pivot(t, zc, zval, leave, enter);
        ++iterations;
        ++phase_iterations;
    }
}

} // namespace

LpResult
SimplexSolver::solve(const LpProblem &problem) const
{
    LpResult result;
    const int n = problem.numVariables();

    // Shift variables to y = x - lo >= 0 and collect finite upper
    // bounds as extra rows.
    std::vector<double> shift(n);
    for (int v = 0; v < n; ++v)
        shift[v] = problem.lowerBound(v);

    struct Row
    {
        std::vector<std::pair<int, double>> terms;
        Relation relation;
        double rhs;
    };
    std::vector<Row> rows;
    rows.reserve(problem.numConstraints() + n);
    for (int r = 0; r < problem.numConstraints(); ++r) {
        const Constraint &con = problem.constraint(r);
        double rhs = con.rhs;
        for (const auto &[var, coef] : con.terms)
            rhs -= coef * shift[var];
        rows.push_back({con.terms, con.relation, rhs});
    }
    for (int v = 0; v < n; ++v) {
        double ub = problem.upperBound(v);
        if (ub < LpProblem::kInfinity) {
            rows.push_back({{{v, 1.0}}, Relation::LessEq, ub - shift[v]});
        }
    }

    const int m = static_cast<int>(rows.size());

    // Normalize rows so every right-hand side is non-negative.
    for (auto &row : rows) {
        if (row.rhs < 0) {
            row.rhs = -row.rhs;
            for (auto &[var, coef] : row.terms)
                coef = -coef;
            if (row.relation == Relation::LessEq)
                row.relation = Relation::GreaterEq;
            else if (row.relation == Relation::GreaterEq)
                row.relation = Relation::LessEq;
        }
    }

    // Count slack and artificial columns.
    int num_slack = 0;
    int num_art = 0;
    for (const auto &row : rows) {
        if (row.relation != Relation::Equal)
            ++num_slack;
        if (row.relation != Relation::LessEq)
            ++num_art;
    }

    Tableau t;
    t.rows = m;
    t.numStructural = n;
    t.firstArtificial = n + num_slack;
    t.cols = n + num_slack + num_art;
    t.a.assign(m, std::vector<double>(t.cols, 0.0));
    t.rhs.assign(m, 0.0);
    t.basis.assign(m, -1);

    int slack_at = n;
    int art_at = t.firstArtificial;
    for (int r = 0; r < m; ++r) {
        const Row &row = rows[r];
        for (const auto &[var, coef] : row.terms)
            t.at(r, var) += coef;
        t.rhs[r] = row.rhs;
        switch (row.relation) {
          case Relation::LessEq:
            t.at(r, slack_at) = 1.0;
            t.basis[r] = slack_at++;
            break;
          case Relation::GreaterEq:
            t.at(r, slack_at) = -1.0;
            ++slack_at;
            t.at(r, art_at) = 1.0;
            t.basis[r] = art_at++;
            break;
          case Relation::Equal:
            t.at(r, art_at) = 1.0;
            t.basis[r] = art_at++;
            break;
        }
    }

    long iterations = 0;

    // Phase 1: maximize -(sum of artificials). Reduced costs start as
    // zc[j] = sum over artificial-basic rows of -row coefficients.
    if (num_art > 0) {
        std::vector<double> zc(t.cols, 0.0);
        double zval = 0.0;
        for (int c = t.firstArtificial; c < t.cols; ++c)
            zc[c] = 1.0; // cost -1 => zc = z_j - c_j = 0 - (-1)
        for (int r = 0; r < m; ++r) {
            if (t.basis[r] >= t.firstArtificial) {
                for (int c = 0; c < t.cols; ++c)
                    zc[c] -= t.at(r, c);
                zval -= t.rhs[r];
            }
        }
        LpStatus st = runSimplex(t, zc, zval, true, tolerance,
                                 maxIterations, iterations);
        if (st == LpStatus::IterLimit) {
            result.status = st;
            result.iterations = iterations;
            return result;
        }
        if (zval < -1e-6) {
            result.status = LpStatus::Infeasible;
            result.iterations = iterations;
            return result;
        }
        // Drive any artificial that is still basic (at value 0) out of
        // the basis when a non-artificial pivot exists.
        for (int r = 0; r < m; ++r) {
            if (t.basis[r] >= t.firstArtificial) {
                int enter = -1;
                for (int c = 0; c < t.firstArtificial; ++c) {
                    if (std::fabs(t.at(r, c)) > tolerance) {
                        enter = c;
                        break;
                    }
                }
                if (enter >= 0)
                    pivot(t, zc, zval, r, enter);
                // Otherwise the row is redundant; the artificial stays
                // basic at zero and is barred from re-entering.
            }
        }
    }

    // Phase 2: maximize the original objective.
    std::vector<double> zc(t.cols, 0.0);
    double zval = 0.0;
    for (int v = 0; v < n; ++v)
        zc[v] = -problem.objectiveCoef(v);
    // Make reduced costs consistent with the current basis.
    for (int r = 0; r < m; ++r) {
        int b = t.basis[r];
        double cost = (b < n) ? problem.objectiveCoef(b) : 0.0;
        if (std::fabs(cost) > 1e-13) {
            for (int c = 0; c < t.cols; ++c)
                zc[c] += cost * t.at(r, c);
            zval += cost * t.rhs[r];
        }
    }
    for (int r = 0; r < m; ++r)
        zc[t.basis[r]] = 0.0;

    LpStatus st = runSimplex(t, zc, zval, false, tolerance, maxIterations,
                             iterations);
    result.iterations = iterations;
    if (st != LpStatus::Optimal) {
        result.status = st;
        return result;
    }

    // Recover variable values (undo the lower-bound shift).
    std::vector<double> y(n, 0.0);
    for (int r = 0; r < m; ++r) {
        if (t.basis[r] < n)
            y[t.basis[r]] = t.rhs[r];
    }
    result.values.resize(n);
    double objective = 0.0;
    for (int v = 0; v < n; ++v) {
        result.values[v] = y[v] + shift[v];
        objective += problem.objectiveCoef(v) * result.values[v];
    }
    result.objective = objective;
    result.status = LpStatus::Optimal;
    return result;
}

} // namespace lp
} // namespace helix
