// Clean: the wall timer may read steady_clock; the reading feeds
// reported wall time and budget cutoffs, never a metric value.
#include <chrono>

class WallTimer
{
  public:
    double seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
};
