// Clean: the parallel-task runner is the one src/ file that starts
// threads.
#include <functional>
#include <thread>
#include <vector>

void runTasks(const std::vector<std::function<void()>> &tasks, int threads)
{
    std::vector<std::thread> pool;
    for (int w = 1; w < threads; ++w)
        pool.emplace_back([] {});
    for (const auto &task : tasks)
        task();
    for (std::thread &thread : pool)
        thread.join();
}
