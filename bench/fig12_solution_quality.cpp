/**
 * @file
 * Reproduces Fig. 12: quality of the best model placement and the
 * best upper bound found by the MILP solver as a function of solving
 * time, for serving LLaMA 30B on a 4 L4 + 6 T4 cluster. The paper
 * observes that the optimal placement appears within minutes while
 * proving optimality takes much longer, motivating early stopping.
 *
 * Two progress traces are printed: the exact Tables-5/6 MILP solved
 * by the oracle branch-and-bound on a reduced instance (exactness),
 * and the planner's flow search on the full 10-node cluster
 * (scalability).
 */

#include <cstdio>

#include "bench_common.h"
#include "oracle/branch_and_bound.h"
#include "oracle/milp_formulation.h"

int
main(int argc, char **argv)
{
    using namespace helix;
    using namespace helix::bench;

    Scale scale = Scale::fromArgs(argc, argv);
    model::TransformerSpec model_spec = model::catalog::llama30b();

    // --- Exact MILP on a reduced instance (2 L4 + 3 T4, 20 layers):
    // small enough for branch-and-bound to prove optimality. ---
    {
        cluster::ClusterSpec clus;
        for (int i = 0; i < 2; ++i)
            clus.addNode({"L4-" + std::to_string(i),
                          cluster::gpus::l4(), 1, 0});
        for (int i = 0; i < 3; ++i)
            clus.addNode({"T4-" + std::to_string(i),
                          cluster::gpus::t4(), 1, 0});
        clus.setUniformLinks(10e9, 1e-3);
        model::TransformerSpec reduced = model_spec;
        reduced.numLayers = 20;
        cluster::Profiler profiler(reduced);

        placement::MilpFormulation formulation(clus, profiler);
        std::printf("=== Fig. 12 (exact MILP, reduced 5-node "
                    "instance): %d vars, %d constraints ===\n",
                    formulation.numVariables(),
                    formulation.numConstraints());

        milp::BnbConfig config;
        config.timeLimitSeconds = 3.0 * scale.plannerBudgetS;
        config.recordProgress = true;
        // Heuristic warm starts, exactly as the planner uses them
        // (Sec. 4.5 speedup 2).
        placement::PetalsPlanner petals;
        placement::SwarmPlanner swarm;
        config.warmStarts.push_back(formulation.encodePlacement(
            petals.plan(clus, profiler)));
        config.warmStarts.push_back(formulation.encodePlacement(
            swarm.plan(clus, profiler)));
        config.objectiveUpperBound =
            profiler.throughputUpperBound(clus);
        milp::BranchAndBound solver;
        milp::MilpResult result =
            solver.solve(formulation.problem(), config);
        std::printf("status: %s, nodes explored: %ld\n",
                    milp::toString(result.status),
                    result.nodesExplored);
        std::printf("%-12s %16s %16s\n", "time (s)", "incumbent",
                    "upper bound");
        for (const auto &sample : result.progress) {
            if (sample.incumbent < 0.0)
                continue; // no incumbent yet
            std::printf("%-12.3f %16.1f %16.1f\n", sample.seconds,
                        sample.incumbent,
                        std::min(sample.bound, 1e12));
        }
        std::printf("final objective: %.1f tokens/s (bound %.1f)\n\n",
                    result.objective, std::min(result.bound, 1e12));
    }

    // --- Flow-guided search on the paper's 4 L4 + 6 T4 cluster. ---
    {
        cluster::ClusterSpec clus =
            cluster::setups::plannerCluster10();
        cluster::Profiler profiler(model_spec);
        placement::HelixPlannerConfig config;
        config.timeBudgetSeconds = 2.0 * scale.plannerBudgetS;
        placement::HelixPlanner planner(config);
        placement::ModelPlacement placement =
            planner.plan(clus, profiler);
        const auto &report = planner.report();

        std::printf("=== Fig. 12 (flow search, 4 L4 + 6 T4, LLaMA "
                    "30B) ===\n");
        std::printf("%-12s %16s %16s\n", "time (s)", "incumbent",
                    "upper bound");
        for (const auto &sample : report.progress) {
            std::printf("%-12.3f %16.1f %16.1f\n", sample.seconds,
                        sample.incumbent, report.upperBound);
        }
        std::printf("best placement throughput: %.1f tokens/s "
                    "(bound %.1f, early stop: %s)\n",
                    report.bestThroughput, report.upperBound,
                    report.earlyStopped ? "yes" : "no");
        std::printf("\npaper reference: the optimal placement emerges "
                    "within minutes; proving optimality takes over an "
                    "hour, so early stopping is sound.\n");
    }
    return 0;
}
