// A justified allow() suppresses the metrics-schema finding on the line
// below it: scratchCounter has no schema row.
struct SimMetrics
{
    double decodeThroughput = 0.0;
    // helix-lint: allow(metrics-schema) fixture: a scratch counter that is never emitted or fingerprinted
    long scratchCounter = 0;
};
