// Clean: tests/ is outside the unordered-iter scope (src/, bench/).
#include <unordered_set>

bool seen(int node)
{
    static const std::unordered_set<int> nodes = {1, 2, 3};
    return nodes.count(node) > 0;
}
