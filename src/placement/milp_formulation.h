/**
 * @file
 * The exact MILP formulation of optimal model placement from Sec. 4.4
 * of the paper (variables of Table 5, constraints of Table 6).
 *
 * Variables per compute node i: integer s_i (first layer held) and
 * binaries b_i^j (node holds j layers, j = 1..k_i). Variables per
 * network connection: real flow f and binary validity d, plus two
 * auxiliary binaries cond1/cond2 per compute-compute connection that
 * encode partial inference's rule. The objective maximizes the total
 * flow leaving the source, i.e. the cluster's serving throughput.
 */

#ifndef HELIX_PLACEMENT_MILP_FORMULATION_H
#define HELIX_PLACEMENT_MILP_FORMULATION_H

#include <vector>

#include "cluster/cluster.h"
#include "cluster/profiler.h"
#include "milp/branch_and_bound.h"
#include "placement/placement.h"
#include "placement/placement_graph.h"

namespace helix {
namespace placement {

/**
 * Builds and interprets the placement MILP for one (cluster, model)
 * pair.
 */
class MilpFormulation
{
  public:
    MilpFormulation(const cluster::ClusterSpec &cluster,
                    const cluster::Profiler &profiler,
                    const ConnectionFilter *filter = nullptr);

    /** The constructed MILP (maximization). */
    const milp::MilpProblem &problem() const { return milpProblem; }

    /** Problem-size figures for the Table 8 reproduction. */
    int numVariables() const { return milpProblem.numVariables(); }
    int numConstraints() const { return milpProblem.numConstraints(); }

    /** Decode a solver assignment into a model placement. */
    ModelPlacement extractPlacement(
        const std::vector<double> &values) const;

    /**
     * Encode a heuristic placement as a complete feasible assignment
     * (warm start, Sec. 4.5 speedup 2): placement variables from the
     * placement itself, validity variables from the validity rules,
     * and flow variables from a max-flow solve on the corresponding
     * placement graph. Unused nodes are assigned layer [0, 1) with no
     * flow, since the formulation requires every node to hold at
     * least one layer.
     */
    std::vector<double> encodePlacement(
        const ModelPlacement &placement) const;

  private:
    /** Index helpers into the connection variable arrays. */
    int pairIndex(int from, int to) const;

    const cluster::ClusterSpec &clusterRef;
    const cluster::Profiler &profilerRef;
    const ConnectionFilter *connectionFilter; // nullptr: no pruning
    milp::MilpProblem milpProblem;

    int numLayers = 0;
    std::vector<int> sVar;               // per node
    std::vector<std::vector<int>> bVar;  // per node, j = 1..k_i
    std::vector<int> fSource;            // per node
    std::vector<int> dSource;            // per node
    std::vector<int> fSink;              // per node
    std::vector<int> dSink;              // per node
    // Compute-compute connections, -1 when pruned / absent.
    std::vector<int> fPair;
    std::vector<int> dPair;
    std::vector<int> cond1Pair;
    std::vector<int> cond2Pair;
};

} // namespace placement
} // namespace helix

#endif // HELIX_PLACEMENT_MILP_FORMULATION_H
