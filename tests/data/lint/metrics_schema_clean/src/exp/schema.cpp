// Clean fixture schema: one row per SimMetrics field (an emitted
// column, a composite column or an internal-metric opt-out), plus
// job-level columns the fingerprint does not cover.
const MetricColumnSpec kMetricColumns[] = {
    {"planned_throughput", "plannedThroughput", "",
     [](const JobResult &r) { return r.plannedThroughput; }},
    {"decode_throughput", "metrics.decodeThroughput",
     "decodeThroughput=",
     [](const JobResult &r) { return r.metrics.decodeThroughput; }},
    {"requests_arrived", "metrics.requestsArrived", "arrived=",
     [](const JobResult &r) {
         return static_cast<double>(r.metrics.requestsArrived);
     }},
};

const StringColumnSpec kStringColumns[] = {
    {"cluster", "cluster", [](const JobResult &r) -> const std::string & {
         return r.cluster;
     }},
};

const CompositeColumnSpec kCompositeColumns[] = {
    {"churn_events", "flow_events", "metrics.flowEvents", "flowEvent="},
};

const InternalMetricSpec kInternalMetrics[] = {
    {"metrics.decodeTokensInWindow", "decodeTokens="},
};
