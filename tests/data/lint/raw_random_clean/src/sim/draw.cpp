// Clean counterpart for the raw-random check: every draw flows through
// the seeded helix::Rng, and no clock is read ("rand()" in a string or
// comment is not a call).
#include "util/random.h"

double jitteredDelay(helix::Rng &rng, double base_s)
{
    const char *note = "not rand() or time(0)";
    (void)note;
    return base_s * (1.0 + 0.1 * rng.nextDouble());
}
