/**
 * @file
 * Exhaustive textual fingerprint of sim::SimMetrics plus the real
 * JSON/CSV emitter bytes, shared by the simulator golden test and the
 * fairness harness. Two fingerprints are equal iff every metric is
 * bit-identical: doubles print with %.17g, so string equality is
 * value equality.
 */

#ifndef HELIX_TESTS_SIM_FINGERPRINT_H
#define HELIX_TESTS_SIM_FINGERPRINT_H

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "exp/experiment.h"
#include "sim/simulator.h"

namespace helix {
namespace sim {

/** %.17g rendering: two doubles print identically iff they are the
 *  same value (modulo signed zero, which the simulator never emits). */
inline std::string
num(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

inline void
appendStat(std::ostringstream &out, const char *name,
           const StatAccumulator &stat)
{
    out << name << " count=" << stat.count();
    if (stat.count() == 0) {
        out << "\n";
        return;
    }
    out << " sum=" << num(stat.sum()) << " mean=" << num(stat.mean())
        << " min=" << num(stat.min()) << " max=" << num(stat.max())
        << " p50=" << num(stat.percentile(50.0))
        << " p99=" << num(stat.percentile(99.0)) << "\n";
}

/** Every scalar, flow event, node stat, link stat and tenant stat.
 *  helix-lint's metrics-schema check cross-references the field
 *  tokens emitted here against the schema table in src/exp/schema.cpp,
 *  so new SimMetrics fields must be added to both (and to the
 *  emitters) or the helix_lint_tree test fails. */
inline std::string
fingerprint(const SimMetrics &metrics)
{
    std::ostringstream out;
    out << "decodeThroughput=" << num(metrics.decodeThroughput)
        << "\npromptThroughput=" << num(metrics.promptThroughput)
        << "\narrived=" << metrics.requestsArrived
        << " admitted=" << metrics.requestsAdmitted
        << " completed=" << metrics.requestsCompleted
        << " rejected=" << metrics.requestsRejected
        << " restarted=" << metrics.requestsRestarted
        << " preempted=" << metrics.requestsPreempted
        << "\ndecodeTokens=" << metrics.decodeTokensInWindow
        << " promptTokens=" << metrics.promptTokensInWindow
        << "\navgKvUtilization=" << num(metrics.avgKvUtilization)
        << " simulatedSeconds=" << num(metrics.simulatedSeconds)
        << " jain=" << num(metrics.jainIndex)
        << "\n";
    appendStat(out, "promptLatency", metrics.promptLatency);
    appendStat(out, "decodeLatency", metrics.decodeLatency);
    for (const SimMetrics::FlowEvent &event : metrics.flowEvents) {
        out << "flow t=" << num(event.time) << " node=" << event.node
            << " kind=" << toString(event.kind)
            << " resolve=" << toString(event.resolveKind)
            << " flow=" << num(event.flow) << "\n";
    }
    for (size_t i = 0; i < metrics.nodeStats.size(); ++i) {
        const SimMetrics::NodeStat &stat = metrics.nodeStats[i];
        out << "node " << i << " batches=" << stat.batches
            << " items=" << stat.itemsProcessed
            << " tokens=" << stat.tokensProcessed
            << " busy=" << num(stat.busySeconds)
            << " kvUtil=" << num(stat.kvUtilization) << "\n";
    }
    for (const LinkStat &stat : metrics.linkStats) {
        out << "link " << stat.from << "->" << stat.to
            << " transfers=" << stat.transfers
            << " bytes=" << num(stat.totalBytes)
            << " busy=" << num(stat.busySeconds)
            << " maxDelay=" << num(stat.maxQueueDelayS)
            << " totalDelay=" << num(stat.totalQueueDelayS) << "\n";
    }
    for (size_t t = 0; t < metrics.tenantStats.size(); ++t) {
        const SimMetrics::TenantStat &stat = metrics.tenantStats[t];
        out << "tenant " << t << " name=" << stat.name
            << " weight=" << num(stat.weight)
            << " tput=" << num(stat.decodeThroughput)
            << " arrived=" << stat.requestsArrived
            << " admitted=" << stat.requestsAdmitted
            << " completed=" << stat.requestsCompleted
            << " rejected=" << stat.requestsRejected
            << " preempted=" << stat.requestsPreempted
            << " tokens=" << stat.decodeTokensInWindow
            << " ttft=" << num(stat.ttftAttainment) << "/"
            << stat.ttftMet << ":" << stat.ttftSamples
            << " tpot=" << num(stat.tpotAttainment) << "/"
            << stat.tpotMet << ":" << stat.tpotSamples << "\n";
    }
    return out.str();
}

/** Wrap a metrics value as one JobResult so the real JSON and CSV
 *  emitters are pinned at the byte level too (the wall clock, the one
 *  field allowed to differ between runs, is pinned to 0). */
inline std::string
emitterBytes(const SimMetrics &metrics, const std::string &label)
{
    exp::JobResult result;
    result.label = label;
    result.cluster = "gen";
    result.model = "llama30b";
    result.planner = "swarm";
    result.scheduler = "helix";
    result.arrivals = "poisson";
    result.plannedThroughput = 0.0;
    result.metrics = metrics;
    result.wallSeconds = 0.0;
    std::vector<exp::JobResult> results{result};
    return exp::resultsToJson(results) + "\n---\n" +
           exp::resultsToCsv(results);
}

} // namespace sim
} // namespace helix

#endif // HELIX_TESTS_SIM_FINGERPRINT_H
