// Clean: std::function outside src/sim/ is not on the event hot path.
#ifndef FIXTURE_RUNNER_H
#define FIXTURE_RUNNER_H

#include <functional>

using Task = std::function<void()>;

#endif
