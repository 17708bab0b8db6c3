#include "core/params.h"

#include <stdexcept>

#include "util/compare.h"

namespace helix {
namespace core {

Param &
Param::inRange(double range_lo, double range_hi)
{
    lo = range_lo;
    hi = range_hi;
    loExclusive = false;
    hiExclusive = false;
    hasRangeFlag = true;
    return *this;
}

Param &
Param::inRangeHalfOpen(double range_lo, double range_hi)
{
    lo = range_lo;
    hi = range_hi;
    loExclusive = false;
    hiExclusive = true;
    hasRangeFlag = true;
    return *this;
}

Param &
Param::atLeast(double range_lo)
{
    lo = range_lo;
    hi = std::numeric_limits<double>::infinity();
    loExclusive = false;
    hiExclusive = false;
    hasRangeFlag = true;
    return *this;
}

Param &
Param::greaterThan(double range_lo)
{
    lo = range_lo;
    hi = std::numeric_limits<double>::infinity();
    loExclusive = true;
    hiExclusive = false;
    hasRangeFlag = true;
    return *this;
}

Param &
Param::defaultValue(double value)
{
    defNumber = value;
    hasDefaultFlag = true;
    return *this;
}

Param &
Param::scope(std::string name)
{
    scopeNames.push_back(std::move(name));
    return *this;
}

Param &
Param::usage(std::string text)
{
    use = std::move(text);
    return *this;
}

Param &
Param::oneOf(std::vector<std::string> values)
{
    allowed = std::move(values);
    return *this;
}

Param &
Param::errorTemplate(std::string text)
{
    errTemplate = std::move(text);
    return *this;
}

bool
Param::inScope(const std::string &scope_name) const
{
    if (scopeNames.empty())
        return scope_name == "top";
    for (const std::string &name : scopeNames) {
        if (name == scope_name)
            return true;
    }
    return false;
}

bool
Param::check(double value) const
{
    // Exact: a flag is the literal 0 or 1 as parsed from text.
    if (paramKind == ParamKind::Flag && !sameValue(value, 0.0) &&
        !sameValue(value, 1.0))
        return false;
    if (!hasRangeFlag)
        return true;
    if (loExclusive ? !(value > lo) : !(value >= lo))
        return false;
    if (hiExclusive ? !(value < hi) : !(value <= hi))
        return false;
    return true;
}

bool
Param::checkText(const std::string &text) const
{
    if (allowed.empty())
        return true;
    for (const std::string &choice : allowed) {
        if (choice == text)
            return true;
    }
    return false;
}

std::string
Param::formatError(const std::string &value) const
{
    std::string out;
    out.reserve(errTemplate.size() + keyName.size() + value.size());
    for (size_t i = 0; i < errTemplate.size();) {
        if (errTemplate.compare(i, 5, "{key}") == 0) {
            out += keyName;
            i += 5;
        } else if (errTemplate.compare(i, 7, "{value}") == 0) {
            out += value;
            i += 7;
        } else {
            out += errTemplate[i];
            ++i;
        }
    }
    return out;
}

Param &
ParamRegistry::parameter(const std::string &key, ParamKind kind)
{
    if (find(key) != nullptr) {
        throw std::logic_error("duplicate parameter declaration '" +
                               key + "'");
    }
    params.emplace_back(key, kind);
    return params.back();
}

const Param *
ParamRegistry::find(const std::string &key) const
{
    for (const Param &param : params) {
        if (param.key() == key)
            return &param;
    }
    return nullptr;
}

std::vector<std::string>
ParamRegistry::keysInScope(const std::string &scope_name) const
{
    std::vector<std::string> keys;
    for (const Param &param : params) {
        if (param.inScope(scope_name))
            keys.push_back(param.key());
    }
    return keys;
}

namespace {

/**
 * Declare every `experiment v1` spec knob. Error templates are
 * pinned byte-for-byte by tests/test_spec.cpp; scenario-option
 * declaration order determines io::scenarioOptionKeys() and with it
 * the pinned "(known: ...)" messages — append new options at the end
 * of their scope, never in the middle.
 */
ParamRegistry
buildSpecParams()
{
    ParamRegistry registry;

    // --- Top-level scalar directives -------------------------------
    registry.parameter("name", ParamKind::String)
        .usage("name <identifier>");
    registry.parameter("output", ParamKind::String)
        .oneOf({"csv", "json"})
        .usage("output <csv|json>")
        .errorTemplate("output must be 'csv' or 'json', got '{value}'");
    registry.parameter("threads", ParamKind::Int)
        .atLeast(0)
        .usage("threads <count>")
        .errorTemplate(
            "threads must be a non-negative integer, got '{value}'");
    registry.parameter("seed", ParamKind::UInt64)
        .scope("top")
        .scope("scenario:offline")
        .scope("scenario:online")
        .scope("scenario:bursty")
        .scope("scenario:churn")
        .scope("scenario:online-peak")
        .usage("seed <uint64>")
        .errorTemplate(
            "seed must be an unsigned integer, got '{value}'");
    registry.parameter("warmup", ParamKind::Double)
        .atLeast(0.0)
        .scope("top")
        .scope("scenario:offline")
        .scope("scenario:online")
        .scope("scenario:bursty")
        .scope("scenario:churn")
        .scope("scenario:online-peak")
        .usage("<seconds>")
        .errorTemplate("'{key}' must be a non-negative number of "
                       "seconds, got '{value}'");
    // Throughputs divide by the window, so it must be positive.
    registry.parameter("measure", ParamKind::Double)
        .greaterThan(0.0)
        .scope("top")
        .scope("scenario:offline")
        .scope("scenario:online")
        .scope("scenario:bursty")
        .scope("scenario:churn")
        .scope("scenario:online-peak")
        .usage("<seconds>")
        .errorTemplate("'{key}' must be a positive number of seconds, "
                       "got '{value}'");
    registry.parameter("planner-budget", ParamKind::Double)
        .inRange(0.0, kMaxPlannerBudgetS)
        .usage("<seconds>")
        .errorTemplate("'{key}' must be a number of seconds in "
                       "[0, 86400], got '{value}'");
    registry.parameter("starvation-tolerance", ParamKind::Double)
        .inRange(0.0, 1.0)
        .usage("starvation-tolerance <fraction>")
        .errorTemplate("starvation-tolerance must be a fraction in "
                       "[0, 1], got '{value}'");
    registry.parameter("preemption-timeout", ParamKind::Double)
        .atLeast(0.0)
        .usage("preemption-timeout <seconds>")
        .errorTemplate("'{key}' must be a non-negative number of "
                       "seconds, got '{value}'");

    // --- Structural directives -------------------------------------
    registry.parameter("cluster", ParamKind::Structural)
        .usage("cluster <registry-name>");
    registry.parameter("model", ParamKind::Structural)
        .usage("model <registry-name>");
    registry.parameter("planner", ParamKind::Structural)
        .usage("planner <registry-name>");
    registry.parameter("scheduler", ParamKind::Structural)
        .usage("scheduler <registry-name>");
    registry.parameter("system", ParamKind::Structural)
        .usage("system <label> <planner> <scheduler>");
    registry.parameter("scenario", ParamKind::Structural)
        .usage("scenario <kind> [key=value ...]");
    registry.parameter("tenant", ParamKind::Structural)
        .usage("tenant <name> [key=value ...]");

    // --- Scenario options (scoped by kind; order is pinned) --------
    // Defaults are what io::ScenarioSpec::get returns for an option
    // the line leaves out. `utilization` has none: each scenario kind
    // picks its own (exp::scenarioRunConfig).
    registry.parameter("utilization", ParamKind::Double)
        .greaterThan(0.0)
        .scope("scenario:offline")
        .scope("scenario:online")
        .scope("scenario:bursty")
        .scope("scenario:churn")
        .errorTemplate("scenario option 'utilization' must be "
                       "positive, got '{value}'");
    registry.parameter("multiplier", ParamKind::Double)
        .atLeast(1.0)
        .defaultValue(5.0)
        .scope("scenario:bursty")
        .errorTemplate("scenario option 'multiplier' must be at "
                       "least 1, got '{value}'");
    registry.parameter("burst", ParamKind::Double)
        .greaterThan(0.0)
        .defaultValue(30.0)
        .scope("scenario:bursty")
        .errorTemplate("scenario option '{key}' must be a positive "
                       "number of seconds, got '{value}'");
    registry.parameter("gap", ParamKind::Double)
        .greaterThan(0.0)
        .defaultValue(270.0)
        .scope("scenario:bursty")
        .errorTemplate("scenario option '{key}' must be a positive "
                       "number of seconds, got '{value}'");
    registry.parameter("online", ParamKind::Flag)
        .defaultValue(1.0)
        .scope("scenario:churn")
        .errorTemplate(
            "scenario option 'online' must be 0 or 1, got '{value}'");
    registry.parameter("fail", ParamKind::Composite)
        .scope("scenario:churn");
    registry.parameter("recover", ParamKind::Composite)
        .scope("scenario:churn");
    registry.parameter("drift", ParamKind::Double)
        .inRangeHalfOpen(0.0, 1.0)
        .defaultValue(0.0)
        .scope("scenario:churn")
        .errorTemplate("scenario option 'drift' must be a fraction in "
                       "[0, 1), got '{value}'");
    registry.parameter("fraction", ParamKind::Double)
        .greaterThan(0.0)
        .defaultValue(0.75)
        .scope("scenario:online-peak")
        .errorTemplate("scenario option 'fraction' must be positive, "
                       "got '{value}'");

    // --- Tenant options (fair-share serving) -----------------------
    registry.parameter("weight", ParamKind::Double)
        .greaterThan(0.0)
        .scope("tenant")
        .errorTemplate(
            "tenant option 'weight' must be positive, got '{value}'");
    registry.parameter("mix", ParamKind::Double)
        .inRange(0.0, 1.0)
        .scope("tenant")
        .errorTemplate("tenant option 'mix' must be a fraction in "
                       "[0, 1], got '{value}'");
    registry.parameter("slo-ttft", ParamKind::Double)
        .greaterThan(0.0)
        .scope("tenant")
        .errorTemplate("tenant option '{key}' must be a positive "
                       "number of seconds, got '{value}'");
    registry.parameter("slo-tpot", ParamKind::Double)
        .greaterThan(0.0)
        .scope("tenant")
        .errorTemplate("tenant option '{key}' must be a positive "
                       "number of seconds, got '{value}'");

    return registry;
}

} // namespace

const ParamRegistry &
specParams()
{
    static const ParamRegistry registry = buildSpecParams();
    return registry;
}

} // namespace core
} // namespace helix
