#include "oracle/branch_and_bound.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "util/compare.h"
#include "util/logging.h"
#include "util/timer.h"

namespace helix {
namespace milp {

const char *
toString(MilpStatus status)
{
    switch (status) {
      case MilpStatus::Optimal:    return "optimal";
      case MilpStatus::Feasible:   return "feasible";
      case MilpStatus::Infeasible: return "infeasible";
      case MilpStatus::Unknown:    return "unknown";
    }
    return "?";
}

int
MilpProblem::addContinuous(double lower, double upper, double objective)
{
    integral.push_back(false);
    return relaxation.addVariable(lower, upper, objective);
}

int
MilpProblem::addInteger(double lower, double upper, double objective)
{
    integral.push_back(true);
    return relaxation.addVariable(lower, upper, objective);
}

int
MilpProblem::addBinary(double objective)
{
    return addInteger(0.0, 1.0, objective);
}

void
MilpProblem::addConstraint(std::vector<std::pair<int, double>> terms,
                           lp::Relation relation, double rhs)
{
    relaxation.addConstraint(std::move(terms), relation, rhs);
}

bool
MilpProblem::isFeasible(const std::vector<double> &values,
                        double tol) const
{
    if (static_cast<int>(values.size()) != numVariables())
        return false;
    for (int v = 0; v < numVariables(); ++v) {
        double x = values[v];
        if (x < relaxation.lowerBound(v) - tol ||
            x > relaxation.upperBound(v) + tol) {
            return false;
        }
        if (integral[v] && std::fabs(x - std::round(x)) > tol)
            return false;
    }
    for (int r = 0; r < numConstraints(); ++r) {
        const lp::Constraint &con = relaxation.constraint(r);
        double lhs = 0.0;
        for (const auto &[var, coef] : con.terms)
            lhs += coef * values[var];
        switch (con.relation) {
          case lp::Relation::LessEq:
            if (lhs > con.rhs + tol)
                return false;
            break;
          case lp::Relation::GreaterEq:
            if (lhs < con.rhs - tol)
                return false;
            break;
          case lp::Relation::Equal:
            if (std::fabs(lhs - con.rhs) > tol)
                return false;
            break;
        }
    }
    return true;
}

double
MilpProblem::objectiveValue(const std::vector<double> &values) const
{
    double obj = 0.0;
    for (int v = 0; v < numVariables(); ++v)
        obj += relaxation.objectiveCoef(v) * values[v];
    return obj;
}

namespace {

/** Relative optimality gap within which a bound cannot beat the
 *  incumbent. */
constexpr double kRelativeGap = 1e-6;

/** Bound overrides accumulated along one branch of the search tree. */
struct BoundSet
{
    std::vector<std::pair<int, std::pair<double, double>>> entries;
};

/** One open node of the branch-and-bound tree. */
struct SearchNode
{
    double bound = 0.0; // parent LP objective (upper bound)
    BoundSet bounds;
    int depth = 0;
};

struct NodeCompare
{
    bool
    operator()(const SearchNode &a, const SearchNode &b) const
    {
        // Best-first: larger bound first; deeper first on ties to
        // reach incumbents quickly. Exact tie-break keeps the search
        // order deterministic.
        if (!sameValue(a.bound, b.bound))
            return a.bound < b.bound;
        return a.depth < b.depth;
    }
};

} // namespace

MilpResult
BranchAndBound::solve(const MilpProblem &problem,
                      const BnbConfig &config) const
{
    const WallTimer timer;

    MilpResult result;
    lp::SimplexSolver simplex;

    double incumbent_obj = -lp::LpProblem::kInfinity;
    std::vector<double> incumbent;

    auto record = [&](double bound) {
        if (config.recordProgress) {
            result.progress.push_back(
                {timer.seconds(), incumbent_obj, bound});
        }
    };

    // Early-exit predicates against the incumbent. `prunable` says a
    // node (or subtree) with the given LP bound cannot beat the
    // incumbent by more than the gap tolerance; `goodEnough` says the
    // incumbent already reached the caller-supplied objective target,
    // so the search can stop before proving optimality.
    auto prunable = [&](double bound) {
        return incumbent_obj > -lp::LpProblem::kInfinity &&
               bound <=
                   incumbent_obj * (1.0 + kRelativeGap) + 1e-12;
    };
    auto goodEnough = [&] {
        return config.objectiveUpperBound &&
               incumbent_obj > -lp::LpProblem::kInfinity &&
               incumbent_obj >= *config.objectiveUpperBound *
                                    config.earlyStopFraction;
    };

    // Try rounded copies of an LP-relaxation solution as incumbents:
    // first nearest-rounding, then floor-rounding (which stays
    // feasible whenever the binding constraints have nonnegative
    // coefficients, the common shape of Helix's placement MILP). Cheap
    // (a feasibility scan each) and often turns the first few node
    // solves into a strong pruning bound. @return true on improvement.
    auto tryRounded = [&](const std::vector<double> &relaxed,
                          double node_bound) {
        bool improved = false;
        std::vector<double> values(relaxed.size());
        for (int attempt = 0; attempt < 2; ++attempt) {
            bool differs_from_round = false;
            for (int v = 0; v < problem.numVariables(); ++v) {
                double x = relaxed[v];
                if (!problem.isIntegral(v)) {
                    values[v] = x;
                    continue;
                }
                values[v] = attempt == 0 ? std::round(x)
                                         : std::floor(x + 1e-9);
                // Exact: both sides are whole numbers.
                differs_from_round |= !sameValue(values[v], std::round(x));
            }
            // Floor-rounding that matches nearest-rounding would just
            // repeat attempt 0's feasibility scan.
            if (attempt == 1 && !differs_from_round)
                break;
            if (!problem.isFeasible(values, 1e-5))
                continue;
            double obj = problem.objectiveValue(values);
            if (obj <= incumbent_obj)
                continue;
            incumbent_obj = obj;
            incumbent = values;
            record(node_bound);
            improved = true;
        }
        return improved;
    };

    // Seed the incumbent with the best feasible warm start.
    for (const auto &hint : config.warmStarts) {
        if (problem.isFeasible(hint)) {
            double obj = problem.objectiveValue(hint);
            if (obj > incumbent_obj) {
                incumbent_obj = obj;
                incumbent = hint;
            }
        }
    }
    if (incumbent_obj > -lp::LpProblem::kInfinity)
        record(lp::LpProblem::kInfinity);

    // Mutable copy of the LP used for node solves; bounds are applied
    // and restored around each solve.
    lp::LpProblem lp_work = problem.lp();

    auto solveNode = [&](const BoundSet &bounds) {
        std::vector<std::pair<int, std::pair<double, double>>> saved;
        saved.reserve(bounds.entries.size());
        for (const auto &[var, lohi] : bounds.entries) {
            saved.push_back(
                {var, {lp_work.lowerBound(var), lp_work.upperBound(var)}});
            lp_work.setBounds(var, lohi.first, lohi.second);
        }
        lp::LpResult res = simplex.solve(lp_work);
        for (auto it = saved.rbegin(); it != saved.rend(); ++it)
            lp_work.setBounds(it->first, it->second.first,
                              it->second.second);
        return res;
    };

    std::priority_queue<SearchNode, std::vector<SearchNode>, NodeCompare>
        open;
    open.push({lp::LpProblem::kInfinity, {}, 0});

    double best_open_bound = lp::LpProblem::kInfinity;
    bool exhausted = false;
    bool hit_limit = false;

    while (!open.empty()) {
        // Best-first order makes the top-of-queue bound the global
        // upper bound over all open subtrees.
        best_open_bound = open.top().bound;
        if (goodEnough())
            break;
        if (timer.seconds() > config.timeLimitSeconds ||
            result.nodesExplored >= config.nodeLimit) {
            hit_limit = true;
            break;
        }
        SearchNode node = open.top();
        open.pop();

        // The queue is bound-ordered, so an unpromising top node
        // proves every open subtree is within the gap tolerance.
        if (prunable(node.bound)) {
            exhausted = true;
            break;
        }

        lp::LpResult lp_res = solveNode(node.bounds);
        ++result.nodesExplored;
        result.lpIterations += lp_res.iterations;
        if (lp_res.status == lp::LpStatus::Infeasible)
            continue;
        if (lp_res.status != lp::LpStatus::Optimal) {
            // Unbounded relaxation or iteration limit: treat the node
            // bound as unknown but do not claim optimality later.
            hit_limit = true;
            continue;
        }
        double node_bound = lp_res.objective;
        if (prunable(node_bound))
            continue;

        // Find the most fractional integer variable.
        int branch_var = -1;
        double best_frac_dist = 1e-6;
        for (int v = 0; v < problem.numVariables(); ++v) {
            if (!problem.isIntegral(v))
                continue;
            double x = lp_res.values[v];
            double frac = x - std::floor(x);
            double dist = std::min(frac, 1.0 - frac);
            if (dist > best_frac_dist) {
                best_frac_dist = dist;
                branch_var = v;
            }
        }

        if (branch_var < 0) {
            // Integral solution: round and accept as incumbent.
            tryRounded(lp_res.values, node_bound);
            continue;
        }

        // Fractional node: try the rounded relaxation as a heuristic
        // incumbent before branching. When it succeeds, the improved
        // bound may prune this very subtree (node_bound is its upper
        // bound) or finish the search outright.
        if (tryRounded(lp_res.values, node_bound) &&
            (goodEnough() || prunable(node_bound))) {
            if (goodEnough())
                break;
            continue;
        }

        // Branch: floor side and ceil side.
        double x = lp_res.values[branch_var];
        double lo = lp_work.lowerBound(branch_var);
        double hi = lp_work.upperBound(branch_var);
        for (const auto &[var, lohi] : node.bounds.entries) {
            if (var == branch_var) {
                lo = lohi.first;
                hi = lohi.second;
            }
        }
        double floor_x = std::floor(x);
        if (floor_x >= lo - 1e-9) {
            SearchNode child;
            child.bound = node_bound;
            child.bounds = node.bounds;
            child.bounds.entries.push_back(
                {branch_var, {lo, floor_x}});
            child.depth = node.depth + 1;
            open.push(std::move(child));
        }
        double ceil_x = std::ceil(x);
        if (ceil_x <= hi + 1e-9) {
            SearchNode child;
            child.bound = node_bound;
            child.bounds = node.bounds;
            child.bounds.entries.push_back({branch_var, {ceil_x, hi}});
            child.depth = node.depth + 1;
            open.push(std::move(child));
        }
    }

    if (open.empty())
        exhausted = true;

    result.wallSeconds = timer.seconds();
    result.bound = exhausted ? incumbent_obj
                             : std::min(best_open_bound,
                                        lp::LpProblem::kInfinity);
    if (incumbent_obj > -lp::LpProblem::kInfinity) {
        result.objective = incumbent_obj;
        result.values = incumbent;
        result.status = (exhausted && !hit_limit)
                            ? MilpStatus::Optimal
                            : MilpStatus::Feasible;
        if (exhausted && !hit_limit)
            result.bound = incumbent_obj;
    } else {
        result.status = (exhausted && !hit_limit) ? MilpStatus::Infeasible
                                                  : MilpStatus::Unknown;
    }
    record(result.bound);
    return result;
}

} // namespace milp
} // namespace helix
