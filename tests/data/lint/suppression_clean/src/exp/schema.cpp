// Schema fixture: a row for decodeThroughput only.
const MetricColumnSpec kMetricColumns[] = {
    {"decode_throughput", "metrics.decodeThroughput",
     "decodeThroughput=",
     [](const JobResult &r) { return r.metrics.decodeThroughput; }},
};
