// Drift fixture schema: every row after the first breaks a rule.
const MetricColumnSpec kMetricColumns[] = {
    {"decode_throughput", "metrics.decodeThroughput",
     "decodeThroughput=",
     [](const JobResult &r) { return r.metrics.decodeThroughput; }},
    // empty fingerprint token on a SimMetrics-backed row
    {"prompt_throughput", "metrics.promptThroughput", "", nullptr}, // LINT-EXPECT: metrics-schema
    // no such field, emitted by neither emitter, not fingerprinted
    {"ghost_column", "metrics.ghostField", "ghost=", nullptr}, // LINT-EXPECT: metrics-schema
};

const CompositeColumnSpec kCompositeColumns[] = {
    // the JSON emitter never writes flow_events
    {"churn_events", "flow_events", "metrics.flowEvents", "flowEvent="}, // LINT-EXPECT: metrics-schema
};

const InternalMetricSpec kInternalMetrics[] = {
    // malformed: no fingerprint token
    {"metrics.promptThroughput"}, // LINT-EXPECT: metrics-schema
};
