/**
 * @file
 * Tests for the simplex LP solver: hand-solved instances, degenerate
 * cases (infeasible, unbounded), bound handling, and randomized
 * verification against feasibility and optimality conditions.
 */

#include <gtest/gtest.h>

#include "oracle/simplex.h"
#include "util/random.h"

namespace helix {
namespace lp {
namespace {

TEST(Simplex, TrivialSingleVariable)
{
    LpProblem p;
    int x = p.addVariable(0.0, 10.0, 1.0);
    SimplexSolver solver;
    LpResult r = solver.solve(p);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 10.0, 1e-6);
    EXPECT_NEAR(r.values[x], 10.0, 1e-6);
}

TEST(Simplex, TextbookTwoVariable)
{
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  =>  z = 36.
    LpProblem p;
    int x = p.addVariable(0.0, LpProblem::kInfinity, 3.0);
    int y = p.addVariable(0.0, LpProblem::kInfinity, 5.0);
    p.addConstraint({{x, 1.0}}, Relation::LessEq, 4.0);
    p.addConstraint({{y, 2.0}}, Relation::LessEq, 12.0);
    p.addConstraint({{x, 3.0}, {y, 2.0}}, Relation::LessEq, 18.0);
    SimplexSolver solver;
    LpResult r = solver.solve(p);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 36.0, 1e-6);
    EXPECT_NEAR(r.values[x], 2.0, 1e-6);
    EXPECT_NEAR(r.values[y], 6.0, 1e-6);
}

TEST(Simplex, EqualityConstraint)
{
    // max x + y s.t. x + y = 5, x <= 3  =>  z = 5.
    LpProblem p;
    int x = p.addVariable(0.0, 3.0, 1.0);
    int y = p.addVariable(0.0, LpProblem::kInfinity, 1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 5.0);
    SimplexSolver solver;
    LpResult r = solver.solve(p);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 5.0, 1e-6);
}

TEST(Simplex, GreaterEqualConstraint)
{
    // max -x s.t. x >= 2  =>  x = 2 (minimize x).
    LpProblem p;
    int x = p.addVariable(0.0, LpProblem::kInfinity, -1.0);
    p.addConstraint({{x, 1.0}}, Relation::GreaterEq, 2.0);
    SimplexSolver solver;
    LpResult r = solver.solve(p);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.values[x], 2.0, 1e-6);
    EXPECT_NEAR(r.objective, -2.0, 1e-6);
}

TEST(Simplex, InfeasibleDetected)
{
    LpProblem p;
    int x = p.addVariable(0.0, LpProblem::kInfinity, 1.0);
    p.addConstraint({{x, 1.0}}, Relation::LessEq, 1.0);
    p.addConstraint({{x, 1.0}}, Relation::GreaterEq, 2.0);
    SimplexSolver solver;
    EXPECT_EQ(solver.solve(p).status, LpStatus::Infeasible);
}

TEST(Simplex, UnboundedDetected)
{
    LpProblem p;
    p.addVariable(0.0, LpProblem::kInfinity, 1.0);
    SimplexSolver solver;
    EXPECT_EQ(solver.solve(p).status, LpStatus::Unbounded);
}

TEST(Simplex, NonzeroLowerBoundsShifted)
{
    // max -x - y s.t. x >= 2, y in [3, 10], x + y >= 7  =>  z = -7.
    LpProblem p;
    int x = p.addVariable(2.0, LpProblem::kInfinity, -1.0);
    int y = p.addVariable(3.0, 10.0, -1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::GreaterEq, 7.0);
    SimplexSolver solver;
    LpResult r = solver.solve(p);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, -7.0, 1e-6);
    EXPECT_GE(r.values[x], 2.0 - 1e-9);
    EXPECT_GE(r.values[y], 3.0 - 1e-9);
}

TEST(Simplex, NegativeRhsNormalized)
{
    // max -x s.t. -x <= -3 (i.e. x >= 3).
    LpProblem p;
    int x = p.addVariable(0.0, LpProblem::kInfinity, -1.0);
    p.addConstraint({{x, -1.0}}, Relation::LessEq, -3.0);
    SimplexSolver solver;
    LpResult r = solver.solve(p);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.values[x], 3.0, 1e-6);
}

TEST(Simplex, RedundantEqualityRows)
{
    // Duplicate equality rows must not break phase 1 cleanup.
    LpProblem p;
    int x = p.addVariable(0.0, 10.0, 1.0);
    int y = p.addVariable(0.0, 10.0, 1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 6.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, Relation::Equal, 6.0);
    SimplexSolver solver;
    LpResult r = solver.solve(p);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 6.0, 1e-6);
}

TEST(Simplex, MaxFlowAsLpMatchesCombinatorial)
{
    // Max flow on the diamond graph expressed as an LP: value 6.
    LpProblem p;
    int sa = p.addVariable(0.0, 2.0, 1.0);
    int sb = p.addVariable(0.0, 5.0, 1.0);
    int at = p.addVariable(0.0, 2.0, 0.0);
    int bt = p.addVariable(0.0, 4.0, 0.0);
    p.addConstraint({{sa, 1.0}, {at, -1.0}}, Relation::Equal, 0.0);
    p.addConstraint({{sb, 1.0}, {bt, -1.0}}, Relation::Equal, 0.0);
    SimplexSolver solver;
    LpResult r = solver.solve(p);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.objective, 6.0, 1e-6);
}

/** Random LPs: solutions must be feasible and at least as good as a
 *  sampled feasible point. */
class RandomLpProperty : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomLpProperty, OptimalIsFeasibleAndDominant)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 30; ++trial) {
        int n = 2 + static_cast<int>(rng.nextBounded(5));
        LpProblem p;
        for (int v = 0; v < n; ++v)
            p.addVariable(0.0, rng.nextUniform(1.0, 10.0),
                          rng.nextUniform(-2.0, 2.0));
        int m = 1 + static_cast<int>(rng.nextBounded(5));
        for (int c = 0; c < m; ++c) {
            std::vector<std::pair<int, double>> terms;
            for (int v = 0; v < n; ++v) {
                // Non-negative coefficients with a generous rhs keep
                // the instance feasible (origin is interior).
                terms.push_back({v, rng.nextUniform(0.0, 1.0)});
            }
            p.addConstraint(terms, Relation::LessEq,
                            rng.nextUniform(1.0, 20.0));
        }
        SimplexSolver solver;
        LpResult r = solver.solve(p);
        ASSERT_EQ(r.status, LpStatus::Optimal) << "trial " << trial;
        // Check feasibility.
        for (int v = 0; v < n; ++v) {
            EXPECT_GE(r.values[v], -1e-6);
            EXPECT_LE(r.values[v], p.upperBound(v) + 1e-6);
        }
        for (int c = 0; c < p.numConstraints(); ++c) {
            double lhs = 0.0;
            for (auto &[var, coef] : p.constraint(c).terms)
                lhs += coef * r.values[var];
            EXPECT_LE(lhs, p.constraint(c).rhs + 1e-6);
        }
        // The origin is feasible with objective 0; positive-coef
        // objectives must do at least as well as 0.
        double zero_obj = 0.0;
        EXPECT_GE(r.objective, zero_obj - 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpProperty,
                         ::testing::Values(31, 37, 41, 43));

TEST(LpProblem, SetBoundsUpdates)
{
    LpProblem p;
    int x = p.addVariable(0.0, 5.0, 1.0);
    p.setBounds(x, 1.0, 2.0);
    EXPECT_DOUBLE_EQ(p.lowerBound(x), 1.0);
    EXPECT_DOUBLE_EQ(p.upperBound(x), 2.0);
    SimplexSolver solver;
    LpResult r = solver.solve(p);
    ASSERT_EQ(r.status, LpStatus::Optimal);
    EXPECT_NEAR(r.values[x], 2.0, 1e-6);
}

} // namespace
} // namespace lp
} // namespace helix
