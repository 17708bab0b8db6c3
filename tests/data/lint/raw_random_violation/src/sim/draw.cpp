// Seeded violations for the raw-random check. Never compiled; read only
// by tools/test_helix_lint.py. LINT-EXPECT markers name the finding the
// linter must report on that line.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

unsigned unseededDraw()
{
    std::random_device entropy;                  // LINT-EXPECT: raw-random
    std::mt19937 engine(12345);                  // LINT-EXPECT: raw-random
    unsigned raw = rand();                       // LINT-EXPECT: raw-random
    long stamp = time(nullptr);                  // LINT-EXPECT: raw-random
    auto t0 = std::chrono::steady_clock::now();  // LINT-EXPECT: raw-random
    (void)entropy;
    (void)t0;
    return raw + static_cast<unsigned>(stamp) + engine();
}
