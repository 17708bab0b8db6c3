// Fingerprint fixture: renders every schema fingerprint token.
inline void
fingerprint(std::ostream &out, const SimMetrics &m)
{
    out << "decodeThroughput=" << m.decodeThroughput
        << " arrived=" << m.requestsArrived
        << " decodeTokens=" << m.decodeTokensInWindow
        << " flowEvent=" << m.flowEvents.size();
}
