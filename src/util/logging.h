/**
 * @file
 * Error-reporting primitives for the Helix library.
 *
 * Follows the gem5 convention: panic() aborts because of an internal
 * library bug that should never happen regardless of user input.
 * User errors (bad configuration, malformed files) are not panics:
 * parsers return an io::ParseError and validators a message instead.
 */

#ifndef HELIX_UTIL_LOGGING_H
#define HELIX_UTIL_LOGGING_H

namespace helix {

/**
 * Terminate because the library reached a state that should be
 * impossible (an internal invariant was violated). Calls abort() so a
 * core dump / debugger can inspect the failure.
 */
[[noreturn]] void panicImpl(const char *file, int line, const char *fmt,
                            ...);

#define HELIX_PANIC(...) ::helix::panicImpl(__FILE__, __LINE__, __VA_ARGS__)

/** Assert an internal invariant; panics with the condition text. */
#define HELIX_ASSERT(cond, ...)                                          \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::helix::panicImpl(__FILE__, __LINE__,                       \
                               "assertion failed: %s", #cond);           \
        }                                                                \
    } while (0)

} // namespace helix

#endif // HELIX_UTIL_LOGGING_H
