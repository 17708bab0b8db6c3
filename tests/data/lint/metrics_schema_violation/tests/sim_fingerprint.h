// Fingerprint fixture: renders decodeThroughput and the flow events.
inline void
fingerprint(std::ostream &out, const SimMetrics &m)
{
    out << "decodeThroughput=" << m.decodeThroughput
        << " flowEvent=" << m.flowEvents.size();
}
