// helix-analyze: treat-as(src/exp/schema_suppression_fixture.cpp)
// A justified allow() suppresses the metrics-schema finding it covers;
// the directive itself is well-formed. Checked as the schema table
// against the schema_clean metrics, emitters and fingerprint.

const MetricColumnSpec kMetricColumns[] = {
    {"decode_throughput", "metrics.decodeThroughput",
     "decodeThroughput=",
     [](const JobResult &r) { return r.metrics.decodeThroughput; }},
    {"requests_arrived", "metrics.requestsArrived", "arrived=",
     [](const JobResult &r) {
         return static_cast<double>(r.metrics.requestsArrived);
     }},
};

const InternalMetricSpec kInternalMetrics[] = {
    // helix-analyze: allow(metrics-schema) fixture: this token is deliberately absent from the fingerprint
    {"metrics.decodeTokensInWindow", "unpinnedTokens="},
};
