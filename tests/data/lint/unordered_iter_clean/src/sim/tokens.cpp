// Clean counterpart for the unordered-iter check: an ordered map
// iterates in key order, so output cannot depend on hash-table layout.
#include <map>

int totalTokens()
{
    std::map<int, int> tokensByNode;
    tokensByNode[3] = 7;
    int total = 0;
    for (const auto &entry : tokensByNode)
        total += entry.second;
    return total;
}
