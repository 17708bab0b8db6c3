// Emitter fixture: the JSON emitter iterates the column tables, the CSV
// one names every column; both render the composite column.
std::string
resultsToJson()
{
    size_t count = 0;
    const MetricColumnSpec *metrics = metricColumns(count);
    const StringColumnSpec *strings = stringColumns(count);
    return render(metrics, strings) + "\"flow_events\": []";
}

std::string
resultsToCsv()
{
    return "cluster,planned_throughput,decode_throughput,"
           "requests_arrived,churn_events\n";
}
