// Drift fixture for the metrics-schema check, read with the schema,
// emitter and fingerprint files of this tree: requestsArrived has no
// schema row. Nested-struct members and member functions are not
// SimMetrics fields.
struct SimMetrics
{
    double decodeThroughput = 0.0;
    double promptThroughput = 0.0;
    long requestsArrived = 0; // LINT-EXPECT: metrics-schema
    struct FlowEvent
    {
        double flow = 0.0;
    };
    std::vector<FlowEvent> flowEvents;
    double tokensPerRequest() const;
};
