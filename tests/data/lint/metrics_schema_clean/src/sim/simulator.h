// Clean fixture for the metrics-schema check: every field has a schema
// row, and every row is emitted and fingerprinted.
struct SimMetrics
{
    /** Decode tokens per second in the window. */
    double decodeThroughput = 0.0;
    long requestsArrived = 0;
    long decodeTokensInWindow = 0;
    struct FlowEvent
    {
        double flow = 0.0;
    };
    std::vector<FlowEvent> flowEvents;
};
