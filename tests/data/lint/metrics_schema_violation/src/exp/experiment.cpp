// Emitter fixture: both emitters render decode_throughput and
// prompt_throughput; only the CSV one renders churn_events.
std::string
resultsToJson()
{
    return "{\"decode_throughput\": 1.0, \"prompt_throughput\": 2.0}";
}

std::string
resultsToCsv()
{
    return "decode_throughput,prompt_throughput,churn_events\n";
}
