// Seeded violation for the raw-thread check: the runner's pool size
// comes from helix::taskWorkers, so reading the core count through
// std::thread here is a finding. Never compiled.
#include <thread>

int workers()
{
    return static_cast<int>(std::thread::hardware_concurrency()); // LINT-EXPECT: raw-thread
}
