/**
 * @file
 * The one place the codebase compares floating-point values exactly.
 *
 * Every target builds with -Wfloat-equal (and -Werror by default), so
 * a bare `==`/`!=` on floating-point operands does not compile.
 * Comparisons that are meant to be exact (comparator tie-breaks,
 * sentinel values, idempotence checks, equality of parsed values)
 * call sameValue() and state the reason at the call site.
 */

#ifndef HELIX_UTIL_COMPARE_H
#define HELIX_UTIL_COMPARE_H

namespace helix {

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfloat-equal"
/** Exact floating-point equality, `a == b` with no tolerance: -0.0
 *  equals 0.0 and NaN equals nothing. */
constexpr bool
sameValue(double a, double b)
{
    return a == b;
}
#pragma GCC diagnostic pop

} // namespace helix

#endif // HELIX_UTIL_COMPARE_H
