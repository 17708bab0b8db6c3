// Clean counterpart for the raw-thread check: the chains run as tasks
// on the runner ("std::thread" in a string or comment is not a use),
// and std::this_thread starts nothing.
#include <functional>
#include <thread>
#include <vector>

void runTasks(const std::vector<std::function<void()>> &tasks, int threads);

void searchChains(int chains)
{
    const char *note = "no std::thread here";
    (void)note;
    std::vector<std::function<void()>> tasks(
        chains, [] { std::this_thread::yield(); });
    runTasks(tasks, chains);
}
