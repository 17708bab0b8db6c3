// Fingerprint fixture: renders decodeThroughput.
inline void
fingerprint(std::ostream &out, const SimMetrics &m)
{
    out << "decodeThroughput=" << m.decodeThroughput;
}
