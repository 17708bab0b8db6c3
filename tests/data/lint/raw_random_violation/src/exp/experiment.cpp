// Seeded violation for the raw-random check: a file that once held its
// own budget timer now reads the clock only through src/util/timer.h,
// so a steady_clock read here is a finding. Never compiled.
#include <chrono>

double wallSeconds()
{
    static const auto start = std::chrono::steady_clock::now(); // LINT-EXPECT: raw-random
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start) // LINT-EXPECT: raw-random
        .count();
}
