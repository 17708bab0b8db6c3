// Seeded violations for the unordered-iter check: an unordered
// container in determinism-critical code, whose iteration order is
// implementation-defined.
#include <unordered_map>  // LINT-EXPECT: unordered-iter

int totalTokens()
{
    std::unordered_map<int, int> tokensByNode;  // LINT-EXPECT: unordered-iter
    tokensByNode[3] = 7;
    int total = 0;
    for (const auto &entry : tokensByNode)
        total += entry.second;
    return total;
}
