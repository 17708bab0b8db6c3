#include "util/tasks.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

namespace helix {

int
taskWorkers(int threads, size_t tasks)
{
    if (threads <= 0)
        threads = std::max(1, static_cast<int>(
                                  std::thread::hardware_concurrency()));
    return static_cast<int>(std::min(static_cast<size_t>(threads), tasks));
}

void
runTasks(const std::vector<std::function<void()>> &tasks, int threads)
{
    // Each task's exception has its own slot, so no worker waits on
    // another, and the one rethrown does not depend on the timing.
    std::vector<std::exception_ptr> errors(tasks.size());
    std::atomic<size_t> next{0};
    auto work = [&]() noexcept {
        for (size_t i = next++; i < tasks.size(); i = next++) {
            try {
                tasks[i]();
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    // A thread that cannot start (std::system_error, or no memory for
    // its handle) leaves its share of the queue to the others; the
    // caller always works.
    const int workers = taskWorkers(threads, tasks.size());
    std::vector<std::thread> pool;
    for (int w = 1; w < workers; ++w) {
        try {
            pool.emplace_back(work);
        } catch (...) {
            break;
        }
    }
    work();
    for (std::thread &thread : pool)
        thread.join();
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

} // namespace helix
