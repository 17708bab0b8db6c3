/**
 * @file
 * Validated configuration-parameter registry.
 *
 * Every knob the `experiment v1` spec grammar accepts — top-level
 * scalar directives, structural directives, scenario options, tenant
 * options — is declared exactly once here with its kind, range,
 * default, and pinned error-message template. Parse sites
 * (src/io/spec.cpp, src/exp/spec.cpp) resolve keys through the
 * registry instead of scattering string literals and ad-hoc range
 * checks; the helix-lint `param-registry` check enforces that no
 * spec-key literal is parsed outside it.
 *
 * The declaration idiom follows ytsaurus's
 * `RegisterParameter(...).InRange(...).Default(...)`
 * builder chain:
 *
 *   registry.parameter("threads", ParamKind::Int)
 *       .atLeast(0)
 *       .defaultValue(0)
 *       .usage("threads <count>")
 *       .errorTemplate("threads must be a non-negative integer, "
 *                      "got '{value}'");
 *
 * Error templates are pinned byte-for-byte by tests/test_spec.cpp:
 * migrating a knob onto the registry must not change the message an
 * invalid spec produces.
 */

#ifndef HELIX_CORE_PARAMS_H
#define HELIX_CORE_PARAMS_H

#include <deque>
#include <limits>
#include <string>
#include <vector>

namespace helix {
namespace core {

/** How a parameter's value token is parsed and checked. */
enum class ParamKind
{
    /** Free-form or enumerated text (see Param::oneOf). */
    String,
    /** Signed integer (range via atLeast/inRange). */
    Int,
    /** Unsigned 64-bit integer. */
    UInt64,
    /** Floating-point number (range via atLeast/inRange). */
    Double,
    /** 0/1 flag routed through the double-valued option table. */
    Flag,
    /** Composite value with its own grammar (e.g. <node>@<fraction>);
     *  the parse site owns the value check, the registry the key. */
    Composite,
    /** Structural directive introducing a record, not a scalar knob
     *  (cluster / model / system / scenario / tenant ...). */
    Structural,
};

/**
 * One declared parameter. Built via ParamRegistry::parameter()'s
 * chaining setters; immutable through the const accessors afterwards.
 */
class Param
{
  public:
    Param(std::string key, ParamKind kind, int order)
        : keyName(std::move(key)), paramKind(kind), declOrder(order)
    {
    }

    /** Inclusive range [lo, hi]. */
    Param &inRange(double lo, double hi);
    /** Half-open range [lo, hi). */
    Param &inRangeHalfOpen(double lo, double hi);
    /** Lower bound only, inclusive. */
    Param &atLeast(double lo);
    /** Lower bound only, exclusive. */
    Param &greaterThan(double lo);
    /** Default value (numeric kinds): what a scenario option reads as
     *  when its line leaves it out (io::ScenarioSpec::get). */
    Param &defaultValue(double value);
    /** Default value (String kind). */
    Param &defaultText(std::string value);
    /** Scope this parameter is valid in (repeatable): "top" for
     *  top-level directives (the default when none is declared),
     *  "scenario:<kind>", or "tenant". */
    Param &scope(std::string name);
    /** Usage string for arity errors ("'key' needs N argument(s): "). */
    Param &usage(std::string text);
    /** Allowed values (String kind enumerations, e.g. csv|json). */
    Param &oneOf(std::vector<std::string> values);
    /**
     * Pinned error-message template for range/parse violations.
     * `{key}` and `{value}` are substituted by formatError().
     */
    Param &errorTemplate(std::string text);

    [[nodiscard]] const std::string &key() const { return keyName; }
    [[nodiscard]] ParamKind kind() const { return paramKind; }
    [[nodiscard]] int declarationOrder() const { return declOrder; }
    [[nodiscard]] const std::string &usageText() const { return use; }
    [[nodiscard]] bool hasDefault() const { return hasDefaultFlag; }
    [[nodiscard]] double defaultNumber() const { return defNumber; }
    [[nodiscard]] const std::string &defaultString() const
    {
        return defText;
    }
    [[nodiscard]] const std::vector<std::string> &scopes() const
    {
        return scopeNames;
    }
    [[nodiscard]] const std::vector<std::string> &allowedValues() const
    {
        return allowed;
    }
    [[nodiscard]] bool hasRange() const { return hasRangeFlag; }
    [[nodiscard]] double rangeLo() const { return lo; }
    [[nodiscard]] double rangeHi() const { return hi; }

    /** Whether this parameter is valid in @p scope_name. */
    [[nodiscard]] bool inScope(const std::string &scope_name) const;

    /** Whether @p value satisfies the declared range (always true
     *  when no range was declared); a Flag must be exactly 0 or 1. */
    [[nodiscard]] bool check(double value) const;

    /** Whether @p text is among the declared allowed values (always
     *  true when none were declared). */
    [[nodiscard]] bool checkText(const std::string &text) const;

    /** The pinned error message with {key}/{value} substituted. */
    [[nodiscard]] std::string formatError(const std::string &value) const;

  private:
    std::string keyName;
    ParamKind paramKind;
    int declOrder;
    std::string use;
    std::string errTemplate;
    std::string defText;
    std::vector<std::string> scopeNames;
    std::vector<std::string> allowed;
    double defNumber = 0.0;
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool loExclusive = false;
    bool hiExclusive = false;
    bool hasRangeFlag = false;
    bool hasDefaultFlag = false;
};

/**
 * The registry: an ordered set of Param declarations with lookup and
 * scope queries. Declaration order is preserved so key
 * listings (and the pinned "(known: ...)" messages built from them)
 * are deterministic.
 */
class ParamRegistry
{
  public:
    /**
     * Declare a parameter. Throws std::logic_error when @p key is
     * already taken — duplicate declarations are programming errors,
     * caught by tests.
     */
    Param &parameter(const std::string &key, ParamKind kind);

    /** Look up by key; nullptr when undeclared. */
    [[nodiscard]] const Param *find(const std::string &key) const;

    /** Keys valid in @p scope_name, declaration order. */
    [[nodiscard]] std::vector<std::string> keysInScope(
        const std::string &scope_name) const;

    /** Every declared key, declaration order (tests, lint). */
    [[nodiscard]] std::vector<std::string> allKeys() const;

  private:
    /** Deque: parameter() hands out references that must survive
     *  later declarations. */
    std::deque<Param> params;
};

/**
 * The singleton registry for the `experiment v1` spec grammar. All
 * spec knobs — including the tenant fair-share keys — are declared
 * here (src/core/params.cpp).
 */
[[nodiscard]] const ParamRegistry &specParams();

} // namespace core
} // namespace helix

#endif // HELIX_CORE_PARAMS_H
