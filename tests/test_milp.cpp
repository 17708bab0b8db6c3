/**
 * @file
 * Tests for the branch-and-bound MILP solver: knapsack instances with
 * known optima, integrality enforcement, warm starts, early stopping,
 * infeasibility, and randomized verification against brute force.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "oracle/branch_and_bound.h"
#include "util/random.h"

namespace helix {
namespace milp {
namespace {

TEST(MilpProblem, FeasibilityChecker)
{
    MilpProblem p;
    int x = p.addBinary(1.0);
    int y = p.addContinuous(0.0, 2.0, 1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, lp::Relation::LessEq, 2.5);
    EXPECT_TRUE(p.isFeasible({1.0, 1.5}));
    EXPECT_FALSE(p.isFeasible({0.5, 1.0})); // fractional binary
    EXPECT_FALSE(p.isFeasible({1.0, 2.0})); // violates constraint
    EXPECT_FALSE(p.isFeasible({1.0, 3.0})); // violates bound
    EXPECT_FALSE(p.isFeasible({1.0}));      // wrong arity
    EXPECT_DOUBLE_EQ(p.objectiveValue({1.0, 1.5}), 2.5);
}

TEST(BranchAndBound, PureLpPassesThrough)
{
    MilpProblem p;
    int x = p.addContinuous(0.0, 4.0, 3.0);
    int y = p.addContinuous(0.0, 6.0, 5.0);
    p.addConstraint({{x, 3.0}, {y, 2.0}}, lp::Relation::LessEq, 18.0);
    BranchAndBound solver;
    MilpResult r = solver.solve(p);
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_NEAR(r.objective, 36.0, 1e-5);
}

TEST(BranchAndBound, SmallKnapsack)
{
    // Items (value, weight): (10,5) (40,4) (30,6) (50,3), cap 10.
    // Optimum: items 2 and 4 => value 90.
    MilpProblem p;
    std::vector<double> values{10, 40, 30, 50};
    std::vector<double> weights{5, 4, 6, 3};
    std::vector<std::pair<int, double>> row;
    for (int i = 0; i < 4; ++i) {
        int var = p.addBinary(values[i]);
        row.push_back({var, weights[i]});
    }
    p.addConstraint(row, lp::Relation::LessEq, 10.0);
    BranchAndBound solver;
    MilpResult r = solver.solve(p);
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_NEAR(r.objective, 90.0, 1e-6);
    EXPECT_NEAR(r.values[1], 1.0, 1e-6);
    EXPECT_NEAR(r.values[3], 1.0, 1e-6);
}

TEST(BranchAndBound, IntegerRounding)
{
    // max x s.t. 2x <= 7, x integer  =>  x = 3 (LP gives 3.5).
    MilpProblem p;
    int x = p.addInteger(0.0, 10.0, 1.0);
    p.addConstraint({{x, 2.0}}, lp::Relation::LessEq, 7.0);
    BranchAndBound solver;
    MilpResult r = solver.solve(p);
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_NEAR(r.objective, 3.0, 1e-6);
}

TEST(BranchAndBound, MixedIntegerContinuous)
{
    // max 2x + y, x integer <= 2.5 cap, y continuous <= 1.7,
    // x + y <= 3.2  =>  x = 2, y = 1.2, z = 5.2.
    MilpProblem p;
    int x = p.addInteger(0.0, 2.5, 2.0);
    int y = p.addContinuous(0.0, 1.7, 1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, lp::Relation::LessEq, 3.2);
    BranchAndBound solver;
    MilpResult r = solver.solve(p);
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_NEAR(r.objective, 5.2, 1e-5);
    EXPECT_NEAR(r.values[x], 2.0, 1e-6);
    EXPECT_NEAR(r.values[y], 1.2, 1e-5);
}

TEST(BranchAndBound, InfeasibleIntegerProblem)
{
    // 0.4 <= x <= 0.6, x integer: no integer point.
    MilpProblem p;
    int x = p.addInteger(0.0, 1.0, 1.0);
    p.addConstraint({{x, 1.0}}, lp::Relation::GreaterEq, 0.4);
    p.addConstraint({{x, 1.0}}, lp::Relation::LessEq, 0.6);
    BranchAndBound solver;
    MilpResult r = solver.solve(p);
    EXPECT_EQ(r.status, MilpStatus::Infeasible);
}

TEST(BranchAndBound, LpFeasibleButIntegerInfeasible)
{
    // x + y = 1.5 with binary x and y: the LP relaxation is feasible
    // (e.g. 0.5 + 1.0) but no integral point satisfies it, so the
    // search must branch and prove infeasibility.
    MilpProblem p;
    int x = p.addBinary(1.0);
    int y = p.addBinary(1.0);
    p.addConstraint({{x, 1.0}, {y, 1.0}}, lp::Relation::Equal, 1.5);
    BranchAndBound solver;
    MilpResult r = solver.solve(p);
    EXPECT_EQ(r.status, MilpStatus::Infeasible);
}

TEST(BranchAndBound, WarmStartBecomesIncumbent)
{
    MilpProblem p;
    std::vector<std::pair<int, double>> row;
    for (int i = 0; i < 6; ++i)
        row.push_back({p.addBinary(1.0), 1.0});
    p.addConstraint(row, lp::Relation::LessEq, 3.0);
    BnbConfig config;
    config.warmStarts.push_back({1, 1, 1, 0, 0, 0});
    config.nodeLimit = 0; // no search at all: incumbent = warm start
    BranchAndBound solver;
    MilpResult r = solver.solve(p, config);
    EXPECT_EQ(r.status, MilpStatus::Feasible);
    EXPECT_NEAR(r.objective, 3.0, 1e-9);
}

TEST(BranchAndBound, InfeasibleWarmStartIgnored)
{
    MilpProblem p;
    int x = p.addBinary(1.0);
    p.addConstraint({{x, 1.0}}, lp::Relation::LessEq, 0.0);
    BnbConfig config;
    config.warmStarts.push_back({1.0}); // violates the constraint
    BranchAndBound solver;
    MilpResult r = solver.solve(p, config);
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(BranchAndBound, EarlyStopAtKnownBound)
{
    MilpProblem p;
    std::vector<std::pair<int, double>> row;
    for (int i = 0; i < 10; ++i)
        row.push_back({p.addBinary(1.0), 1.0});
    p.addConstraint(row, lp::Relation::LessEq, 5.0);
    BnbConfig config;
    config.objectiveUpperBound = 5.0;
    config.warmStarts.push_back(
        {1, 1, 1, 1, 1, 0, 0, 0, 0, 0}); // already optimal
    BranchAndBound solver;
    MilpResult r = solver.solve(p, config);
    EXPECT_NEAR(r.objective, 5.0, 1e-9);
    // Early stop leaves the tree unexplored.
    EXPECT_LE(r.nodesExplored, 1);
}

TEST(BranchAndBound, ProgressRecordingWhenEnabled)
{
    MilpProblem p;
    int x = p.addInteger(0.0, 5.0, 1.0);
    p.addConstraint({{x, 2.0}}, lp::Relation::LessEq, 9.0);
    BnbConfig config;
    config.recordProgress = true;
    BranchAndBound solver;
    MilpResult r = solver.solve(p, config);
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_FALSE(r.progress.empty());
}

TEST(BranchAndBound, BoundMatchesObjectiveWhenProvedOptimal)
{
    MilpProblem p;
    int x = p.addInteger(0.0, 9.0, 1.0);
    p.addConstraint({{x, 3.0}}, lp::Relation::LessEq, 10.0);
    BranchAndBound solver;
    MilpResult r = solver.solve(p);
    ASSERT_EQ(r.status, MilpStatus::Optimal);
    EXPECT_NEAR(r.bound, r.objective, 1e-6);
}

/** Randomized knapsacks cross-checked against exhaustive search. */
class RandomKnapsack : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(RandomKnapsack, MatchesBruteForce)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 20; ++trial) {
        int n = 3 + static_cast<int>(rng.nextBounded(8));
        std::vector<double> values(n);
        std::vector<double> weights(n);
        MilpProblem p;
        std::vector<std::pair<int, double>> row;
        for (int i = 0; i < n; ++i) {
            values[i] = rng.nextUniform(1.0, 20.0);
            weights[i] = rng.nextUniform(1.0, 10.0);
            row.push_back({p.addBinary(values[i]), weights[i]});
        }
        double cap = rng.nextUniform(5.0, 25.0);
        p.addConstraint(row, lp::Relation::LessEq, cap);

        // Brute force over all subsets.
        double best = 0.0;
        for (int mask = 0; mask < (1 << n); ++mask) {
            double v = 0.0;
            double w = 0.0;
            for (int i = 0; i < n; ++i) {
                if (mask & (1 << i)) {
                    v += values[i];
                    w += weights[i];
                }
            }
            if (w <= cap)
                best = std::max(best, v);
        }

        BranchAndBound solver;
        MilpResult r = solver.solve(p);
        ASSERT_EQ(r.status, MilpStatus::Optimal) << "trial " << trial;
        EXPECT_NEAR(r.objective, best, 1e-5) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKnapsack,
                         ::testing::Values(51, 52, 53, 54));

} // namespace
} // namespace milp
} // namespace helix
