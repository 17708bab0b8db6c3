// Seeded violations for the raw-thread check: a search that starts its
// own threads instead of running its chains as tasks on
// helix::runTasks. Never compiled; read only by tools/test_helix_lint.py.
#include <future>
#include <thread>
#include <vector>

void searchChains(int chains)
{
    std::vector<std::thread> workers;                   // LINT-EXPECT: raw-thread
    for (int k = 1; k < chains; ++k)
        workers.emplace_back([] {});
    for (auto &worker : workers)
        worker.join();
    std::jthread watchdog([] {});                       // LINT-EXPECT: raw-thread
    auto done = std::async(std::launch::async, [] {});  // LINT-EXPECT: raw-thread
    done.wait();
}
