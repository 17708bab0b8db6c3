// Clean counterpart for the hot-path-std-function check: a
// trivially-copyable tagged union dispatched on `kind`, the shape
// src/sim/simulator.h uses for its Event type.
#ifndef FIXTURE_EVENT_H
#define FIXTURE_EVENT_H

struct FixtureEvent
{
    enum class Kind
    {
        Arrival,
        StageDone,
    };

    Kind kind = Kind::Arrival;
    double time = 0.0;
    int request = -1;
    int node = -1;
};

#endif
