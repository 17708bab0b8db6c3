// Emitter fixture: both emitters render decode_throughput.
std::string
resultsToJson()
{
    return "{\"decode_throughput\": 1.0}";
}

std::string
resultsToCsv()
{
    return "decode_throughput\n1.0\n";
}
