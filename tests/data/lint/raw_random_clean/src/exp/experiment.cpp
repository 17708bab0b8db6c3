// Clean: a whitelisted budget timer may read steady_clock; the reading
// feeds reported wall time, never a metric value.
#include <chrono>

double wallSeconds()
{
    static const auto start = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}
