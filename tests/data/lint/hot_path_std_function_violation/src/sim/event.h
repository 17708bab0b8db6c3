// Seeded violation for the hot-path-std-function check: a callable
// member in a simulator event type allocates per event.
#ifndef FIXTURE_EVENT_H
#define FIXTURE_EVENT_H

#include <functional>

struct FixtureEvent
{
    double time = 0.0;
    std::function<void()> onFire;  // LINT-EXPECT: hot-path-std-function
};

#endif
