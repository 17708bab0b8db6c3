/**
 * @file
 * The library's one wall clock. Planner search budgets and the
 * experiment runner's wall time read it; its readings feed reported
 * timings and budget cutoffs, never metric values. helix-lint allows
 * std::chrono::steady_clock in src/ in this file only.
 */

#ifndef HELIX_UTIL_TIMER_H
#define HELIX_UTIL_TIMER_H

#include <chrono>

namespace helix {

/** Monotonic stopwatch started at construction. */
class WallTimer
{
  public:
    WallTimer() : start(Clock::now()) {}

    /** Wall seconds since construction. */
    [[nodiscard]] double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start).count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start;
};

} // namespace helix

#endif // HELIX_UTIL_TIMER_H
