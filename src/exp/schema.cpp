/**
 * @file
 * Experiment output schema tables (see schema.h). helix-lint's
 * metrics-schema check parses this file textually: keep each table
 * ending at a column-0 `};` and each row's string fields as plain
 * leading literals (no macros, no concatenation).
 */

#include "exp/schema.h"

#include <limits>

#include "exp/experiment.h"
#include "util/stats.h"

namespace helix {
namespace exp {

namespace {

/**
 * A latency statistic, or NaN when the accumulator holds no samples.
 * StatAccumulator returns 0.0 on empty, which in emitted output is
 * indistinguishable from a true zero-latency measurement; the
 * emitters turn the NaN into an empty CSV field / JSON null so
 * downstream analysis can tell "no data" from "zero".
 */
double
statOrNan(const StatAccumulator &stat, double value)
{
    return stat.count() > 0
               ? value
               : std::numeric_limits<double>::quiet_NaN();
}

const MetricColumnSpec kMetricColumns[] = {
    {"planned_throughput", "plannedThroughput", "",
     [](const JobResult &r) { return r.plannedThroughput; }},
    {"decode_throughput", "metrics.decodeThroughput",
     "decodeThroughput=",
     [](const JobResult &r) { return r.metrics.decodeThroughput; }},
    {"prompt_throughput", "metrics.promptThroughput",
     "promptThroughput=",
     [](const JobResult &r) { return r.metrics.promptThroughput; }},
    {"prompt_latency_mean", "metrics.promptLatency", "promptLatency",
     [](const JobResult &r) {
         return statOrNan(r.metrics.promptLatency,
                          r.metrics.promptLatency.mean());
     }},
    {"prompt_latency_p50", "metrics.promptLatency", "promptLatency",
     [](const JobResult &r) {
         return statOrNan(r.metrics.promptLatency,
                          r.metrics.promptLatency.percentile(50));
     }},
    {"prompt_latency_p95", "metrics.promptLatency", "promptLatency",
     [](const JobResult &r) {
         return statOrNan(r.metrics.promptLatency,
                          r.metrics.promptLatency.percentile(95));
     }},
    {"prompt_latency_p99", "metrics.promptLatency", "promptLatency",
     [](const JobResult &r) {
         return statOrNan(r.metrics.promptLatency,
                          r.metrics.promptLatency.percentile(99));
     }},
    {"decode_latency_mean", "metrics.decodeLatency", "decodeLatency",
     [](const JobResult &r) {
         return statOrNan(r.metrics.decodeLatency,
                          r.metrics.decodeLatency.mean());
     }},
    {"decode_latency_p50", "metrics.decodeLatency", "decodeLatency",
     [](const JobResult &r) {
         return statOrNan(r.metrics.decodeLatency,
                          r.metrics.decodeLatency.percentile(50));
     }},
    {"decode_latency_p95", "metrics.decodeLatency", "decodeLatency",
     [](const JobResult &r) {
         return statOrNan(r.metrics.decodeLatency,
                          r.metrics.decodeLatency.percentile(95));
     }},
    {"decode_latency_p99", "metrics.decodeLatency", "decodeLatency",
     [](const JobResult &r) {
         return statOrNan(r.metrics.decodeLatency,
                          r.metrics.decodeLatency.percentile(99));
     }},
    {"requests_arrived", "metrics.requestsArrived", "arrived=",
     [](const JobResult &r) {
         return static_cast<double>(r.metrics.requestsArrived);
     }},
    {"requests_admitted", "metrics.requestsAdmitted", "admitted=",
     [](const JobResult &r) {
         return static_cast<double>(r.metrics.requestsAdmitted);
     }},
    {"requests_completed", "metrics.requestsCompleted", "completed=",
     [](const JobResult &r) {
         return static_cast<double>(r.metrics.requestsCompleted);
     }},
    {"requests_rejected", "metrics.requestsRejected", "rejected=",
     [](const JobResult &r) {
         return static_cast<double>(r.metrics.requestsRejected);
     }},
    {"requests_restarted", "metrics.requestsRestarted", "restarted=",
     [](const JobResult &r) {
         return static_cast<double>(r.metrics.requestsRestarted);
     }},
    {"avg_kv_utilization", "metrics.avgKvUtilization",
     "avgKvUtilization=",
     [](const JobResult &r) { return r.metrics.avgKvUtilization; }},
    {"wall_seconds", "wallSeconds", "",
     [](const JobResult &r) { return r.wallSeconds; }},
};

const StringColumnSpec kStringColumns[] = {
    {"label", "label",
     [](const JobResult &r) -> const std::string & { return r.label; }},
    {"cluster", "cluster",
     [](const JobResult &r) -> const std::string & {
         return r.cluster;
     }},
    {"model", "model",
     [](const JobResult &r) -> const std::string & { return r.model; }},
    {"planner", "planner",
     [](const JobResult &r) -> const std::string & {
         return r.planner;
     }},
    {"scheduler", "scheduler",
     [](const JobResult &r) -> const std::string & {
         return r.scheduler;
     }},
    {"arrivals", "arrivals",
     [](const JobResult &r) -> const std::string & {
         return r.arrivals;
     }},
};

const CompositeColumnSpec kCompositeColumns[] = {
    {"churn_events", "churn_events", "metrics.flowEvents", "flow t="},
    {"requests_preempted", "requests_preempted",
     "metrics.requestsPreempted", "preempted="},
    {"jain_index", "jain_index", "metrics.jainIndex", "jain="},
    {"tenant_stats", "tenants", "metrics.tenantStats", "tenant "},
};

const InternalMetricSpec kInternalMetrics[] = {
    // Raw token counters the *_throughput columns are derived from.
    {"metrics.decodeTokensInWindow", "decodeTokens="},
    {"metrics.promptTokensInWindow", "promptTokens="},
    // The denominator of the throughput columns.
    {"metrics.simulatedSeconds", "simulatedSeconds="},
    // Per-node / per-link detail: fingerprinted exhaustively, far too
    // wide for flat experiment rows.
    {"metrics.nodeStats", "batches="},
    {"metrics.linkStats", "transfers="},
};

} // namespace

const MetricColumnSpec *
metricColumns(size_t &count)
{
    count = sizeof(kMetricColumns) / sizeof(kMetricColumns[0]);
    return kMetricColumns;
}

const StringColumnSpec *
stringColumns(size_t &count)
{
    count = sizeof(kStringColumns) / sizeof(kStringColumns[0]);
    return kStringColumns;
}

const CompositeColumnSpec *
compositeColumns(size_t &count)
{
    count = sizeof(kCompositeColumns) / sizeof(kCompositeColumns[0]);
    return kCompositeColumns;
}

const InternalMetricSpec *
internalMetrics(size_t &count)
{
    count = sizeof(kInternalMetrics) / sizeof(kInternalMetrics[0]);
    return kInternalMetrics;
}

} // namespace exp
} // namespace helix
