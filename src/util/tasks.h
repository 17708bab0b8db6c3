/**
 * @file
 * The library's one parallel-task runner. The experiment runner's
 * jobs and the flow search's chains both run through it. helix-lint
 * allows std::thread in src/ in this file and tasks.cpp only.
 */

#ifndef HELIX_UTIL_TASKS_H
#define HELIX_UTIL_TASKS_H

#include <cstddef>
#include <functional>
#include <vector>

namespace helix {

/**
 * Workers runTasks() starts for @p tasks tasks at @p threads:
 * min(threads, tasks), where threads <= 0 means the host's cores.
 */
[[nodiscard]] int taskWorkers(int threads, size_t tasks);

/**
 * Run every task exactly once on taskWorkers(@p threads, tasks.size())
 * workers, the caller one of them, and return when all have run.
 * Workers take tasks in index order. A task that throws does not stop
 * the others: once every task has run, the exception of the first
 * task, in index order, that threw is rethrown, whatever the thread
 * count. A worker that cannot start leaves its tasks to the workers
 * that did.
 * Tasks must only touch their own state, or shared state they guard.
 */
void runTasks(const std::vector<std::function<void()>> &tasks,
              int threads);

} // namespace helix

#endif // HELIX_UTIL_TASKS_H
