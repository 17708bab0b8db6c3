#include "placement/milp_formulation.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace helix {
namespace placement {

using lp::Relation;

MilpFormulation::MilpFormulation(const cluster::ClusterSpec &cluster,
                                 const cluster::Profiler &profiler,
                                 const ConnectionFilter *filter)
    : clusterRef(cluster), profilerRef(profiler),
      connectionFilter(filter)
{
    const int n = cluster.numNodes();
    numLayers = profiler.modelSpec().numLayers;
    const double big_l = numLayers;

    // --- Node variables (Table 5) ---
    sVar.resize(n);
    bVar.resize(n);
    for (int i = 0; i < n; ++i) {
        sVar[i] = milpProblem.addInteger(0, numLayers - 1, 0.0);
        int k = profiler.maxLayers(cluster.node(i));
        HELIX_ASSERT(k >= 1);
        bVar[i].resize(k);
        for (int j = 1; j <= k; ++j) {
            bVar[i][j - 1] = milpProblem.addBinary(0.0);
        }
    }

    // --- Connection variables ---
    fSource.resize(n);
    dSource.resize(n);
    fSink.resize(n);
    dSink.resize(n);
    const double tok_bytes = profiler.tokenBytes();
    const double act_bytes = profiler.activationBytes();
    for (int i = 0; i < n; ++i) {
        double cap_in = profiler.linkTokensPerSecond(
            cluster.link(cluster::kCoordinator, i), tok_bytes);
        double cap_out = profiler.linkTokensPerSecond(
            cluster.link(i, cluster::kCoordinator), tok_bytes);
        // Flow from source contributes to the objective (maximize
        // total throughput).
        fSource[i] = milpProblem.addContinuous(0.0, cap_in, 1.0);
        dSource[i] = milpProblem.addBinary(0.0);
        fSink[i] = milpProblem.addContinuous(0.0, cap_out, 0.0);
        dSink[i] = milpProblem.addBinary(0.0);
    }
    fPair.assign(static_cast<size_t>(n) * n, -1);
    dPair.assign(static_cast<size_t>(n) * n, -1);
    cond1Pair.assign(static_cast<size_t>(n) * n, -1);
    cond2Pair.assign(static_cast<size_t>(n) * n, -1);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            if (i == j)
                continue;
            if (filter && !filter->allowed(i, j))
                continue;
            int idx = pairIndex(i, j);
            double cap = profiler.linkTokensPerSecond(
                cluster.link(i, j), act_bytes);
            fPair[idx] = milpProblem.addContinuous(0.0, cap, 0.0);
            dPair[idx] = milpProblem.addBinary(0.0);
            cond1Pair[idx] = milpProblem.addBinary(0.0);
            cond2Pair[idx] = milpProblem.addBinary(0.0);
        }
    }

    // e_i = s_i + sum_j j * b_i^j, expressed inline via terms.
    auto endLayerTerms = [&](int i, double scale) {
        std::vector<std::pair<int, double>> terms;
        terms.push_back({sVar[i], scale});
        for (size_t j = 1; j <= bVar[i].size(); ++j)
            terms.push_back({bVar[i][j - 1],
                             scale * static_cast<double>(j)});
        return terms;
    };

    // --- Constraint group 1: model placement ---
    for (int i = 0; i < n; ++i) {
        std::vector<std::pair<int, double>> one;
        for (int b : bVar[i])
            one.push_back({b, 1.0});
        milpProblem.addConstraint(one, Relation::Equal, 1.0);
        // e_i <= L
        milpProblem.addConstraint(endLayerTerms(i, 1.0),
                                  Relation::LessEq, big_l);
    }

    // --- Constraint group 2: flow conservation ---
    for (int i = 0; i < n; ++i) {
        std::vector<std::pair<int, double>> terms;
        terms.push_back({fSource[i], 1.0});
        terms.push_back({fSink[i], -1.0});
        for (int u = 0; u < n; ++u) {
            if (u == i)
                continue;
            if (fPair[pairIndex(u, i)] >= 0)
                terms.push_back({fPair[pairIndex(u, i)], 1.0});
            if (fPair[pairIndex(i, u)] >= 0)
                terms.push_back({fPair[pairIndex(i, u)], -1.0});
        }
        milpProblem.addConstraint(terms, Relation::Equal, 0.0);
    }

    // --- Constraint group 3: inference throughput ---
    for (int i = 0; i < n; ++i) {
        std::vector<std::pair<int, double>> terms;
        terms.push_back({fSource[i], 1.0});
        for (int u = 0; u < n; ++u) {
            if (u != i && fPair[pairIndex(u, i)] >= 0)
                terms.push_back({fPair[pairIndex(u, i)], 1.0});
        }
        for (size_t j = 1; j <= bVar[i].size(); ++j) {
            double t_j = profiler.decodeThroughput(
                cluster.node(i), static_cast<int>(j));
            terms.push_back({bVar[i][j - 1], -t_j});
        }
        milpProblem.addConstraint(terms, Relation::LessEq, 0.0);
    }

    // --- Constraint group 4: connection validity ---
    for (int i = 0; i < n; ++i) {
        // Source -> i valid only if s_i == 0: s_i <= L * (1 - d).
        milpProblem.addConstraint(
            {{sVar[i], 1.0}, {dSource[i], big_l}}, Relation::LessEq,
            big_l);
        // i -> sink valid only if e_i == L: L * d <= e_i.
        auto terms = endLayerTerms(i, -1.0);
        terms.push_back({dSink[i], big_l});
        milpProblem.addConstraint(terms, Relation::LessEq, 0.0);
    }
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            if (i == j)
                continue;
            int idx = pairIndex(i, j);
            if (fPair[idx] < 0)
                continue;
            // cond1 = 1 only if s_j <= e_i:
            //   (L+1)(1 - cond1) >= s_j - e_i
            // => s_j - e_i + (L+1) cond1 <= L+1.
            auto c1 = endLayerTerms(i, -1.0);
            c1.push_back({sVar[j], 1.0});
            c1.push_back({cond1Pair[idx], big_l + 1.0});
            milpProblem.addConstraint(c1, Relation::LessEq, big_l + 1.0);
            // cond2 = 1 only if e_i < e_j:
            //   e_j - e_i >= 1 - (L+1)(1 - cond2)
            // => e_i - e_j + (L+1) cond2 <= L.
            auto c2 = endLayerTerms(i, 1.0);
            auto ej = endLayerTerms(j, -1.0);
            c2.insert(c2.end(), ej.begin(), ej.end());
            c2.push_back({cond2Pair[idx], big_l + 1.0});
            milpProblem.addConstraint(c2, Relation::LessEq, big_l);
            // d <= 0.5 cond1 + 0.5 cond2.
            milpProblem.addConstraint({{dPair[idx], 1.0},
                                       {cond1Pair[idx], -0.5},
                                       {cond2Pair[idx], -0.5}},
                                      Relation::LessEq, 0.0);
        }
    }

    // --- Constraint group 5: transmission throughput ---
    for (int i = 0; i < n; ++i) {
        double cap_in = profiler.linkTokensPerSecond(
            cluster.link(cluster::kCoordinator, i), tok_bytes);
        double cap_out = profiler.linkTokensPerSecond(
            cluster.link(i, cluster::kCoordinator), tok_bytes);
        milpProblem.addConstraint(
            {{fSource[i], 1.0}, {dSource[i], -cap_in}},
            Relation::LessEq, 0.0);
        milpProblem.addConstraint(
            {{fSink[i], 1.0}, {dSink[i], -cap_out}}, Relation::LessEq,
            0.0);
        for (int j = 0; j < n; ++j) {
            if (i == j)
                continue;
            int idx = pairIndex(i, j);
            if (fPair[idx] < 0)
                continue;
            double cap = profiler.linkTokensPerSecond(
                cluster.link(i, j), act_bytes);
            milpProblem.addConstraint(
                {{fPair[idx], 1.0}, {dPair[idx], -cap}},
                Relation::LessEq, 0.0);
        }
    }
}

int
MilpFormulation::pairIndex(int from, int to) const
{
    return from * clusterRef.numNodes() + to;
}

ModelPlacement
MilpFormulation::extractPlacement(const std::vector<double> &values) const
{
    const int n = clusterRef.numNodes();
    ModelPlacement placement;
    placement.nodes.resize(n);
    for (int i = 0; i < n; ++i) {
        placement[i].start =
            static_cast<int>(std::lround(values[sVar[i]]));
        placement[i].count = 0;
        for (size_t j = 1; j <= bVar[i].size(); ++j) {
            if (values[bVar[i][j - 1]] > 0.5)
                placement[i].count = static_cast<int>(j);
        }
    }
    return placement;
}

std::vector<double>
MilpFormulation::encodePlacement(const ModelPlacement &placement) const
{
    const int n = clusterRef.numNodes();
    HELIX_ASSERT(static_cast<int>(placement.size()) == n);

    // Unused nodes must formally hold one layer; give them [0, 1) and
    // route no flow through them.
    ModelPlacement effective = placement;
    for (int i = 0; i < n; ++i) {
        if (effective[i].count == 0)
            effective[i] = {0, 1};
    }

    PlacementGraph graph(clusterRef, profilerRef, placement,
                         connectionFilter);
    (void)graph.maxThroughput(); // prime per-edge flows for the warm start

    std::vector<double> values(milpProblem.numVariables(), 0.0);
    for (int i = 0; i < n; ++i) {
        values[sVar[i]] = effective[i].start;
        int count = std::min<int>(effective[i].count,
                                  static_cast<int>(bVar[i].size()));
        HELIX_ASSERT(count >= 1);
        values[bVar[i][count - 1]] = 1.0;
    }
    const int num_layers = numLayers;
    for (int i = 0; i < n; ++i) {
        const NodePlacement &p = effective[i];
        bool used = placement[i].count > 0;
        // Source-side validity and flow.
        if (used && p.start == 0) {
            values[dSource[i]] = 1.0;
            values[fSource[i]] =
                graph.connectionFlow(cluster::kCoordinator, i);
        }
        if (used && p.end() == num_layers) {
            values[dSink[i]] = 1.0;
            values[fSink[i]] =
                graph.connectionFlow(i, cluster::kCoordinator);
        }
        for (int j = 0; j < n; ++j) {
            if (i == j)
                continue;
            int idx = pairIndex(i, j);
            if (fPair[idx] < 0)
                continue;
            const NodePlacement &q = effective[j];
            // cond1/cond2 may be set to their implied truth value.
            values[cond1Pair[idx]] = (q.start <= p.end()) ? 1.0 : 0.0;
            values[cond2Pair[idx]] = (p.end() < q.end()) ? 1.0 : 0.0;
            bool valid = used && placement[j].count > 0 &&
                         connectionValid(placement[i], placement[j]);
            if (valid) {
                values[dPair[idx]] = 1.0;
                values[fPair[idx]] = graph.connectionFlow(i, j);
            }
        }
    }
    return values;
}

} // namespace placement
} // namespace helix
