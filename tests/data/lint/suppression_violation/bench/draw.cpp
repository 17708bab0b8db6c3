// Seeded violations for the suppression check: an allow() without a
// justification and an allow() naming an unknown check are findings,
// and neither suppresses anything.
#include <cstdlib>

int main()
{
    // LINT-EXPECT-NEXT: suppression
    // helix-lint: allow(raw-random)
    return rand();  // LINT-EXPECT: raw-random
}

// LINT-EXPECT-NEXT: suppression
// helix-lint: allow(no-such-check) no check has this id
