#include "io/spec.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <sstream>

#include "util/logging.h"

namespace helix {
namespace io {

namespace {

/** The scenario kinds, in the order of scenarioKinds() and of the
 *  scenario scope bits below. */
constexpr const char *kScenarioKinds[] = {"offline", "online", "bursty",
                                          "churn", "online-peak"};

// Where a key is valid, as a bitmask: bit i for the scenario lines of
// kScenarioKinds[i], then top-level directives and tenant lines.
constexpr unsigned kOffline = 1u << 0;
constexpr unsigned kOnline = 1u << 1;
constexpr unsigned kBursty = 1u << 2;
constexpr unsigned kChurn = 1u << 3;
constexpr unsigned kOnlinePeak = 1u << 4;
constexpr unsigned kEveryScenario =
    kOffline | kOnline | kBursty | kChurn | kOnlinePeak;
constexpr unsigned kTop = 1u << 5;
constexpr unsigned kTenant = 1u << 6;
static_assert(kTop == 1u << std::size(kScenarioKinds),
              "one scope bit per scenario kind");

/** How a key's value is parsed and checked. */
enum class ParamKind
{
    /** Text (`name`, `output`). */
    Text,
    /** Unsigned 64-bit integer (`seed`). */
    UInt64,
    /** Floating-point number within the key's range. */
    Number,
    /** The literal 0 or 1. */
    Flag,
    /** A repeatable churn event, `<node>@<fraction>`. */
    Event,
    /** A directive that introduces a record (`cluster`, `system`,
     *  `scenario`, ...); its line has its own grammar. */
    Record,
};

constexpr double kInf = std::numeric_limits<double>::infinity();
/** The default of a key that has none. */
constexpr double kNoDefault = std::numeric_limits<double>::quiet_NaN();

/** The values a key accepts: lo to hi, each end open where flagged. */
struct Range
{
    double lo = -kInf;
    double hi = kInf;
    bool loOpen = false;
    bool hiOpen = false;
};

constexpr Range kAny{};

constexpr Range
atLeast(double lo)
{
    return {lo, kInf, false, false};
}

constexpr Range
above(double lo)
{
    return {lo, kInf, true, false};
}

constexpr Range
closed(double lo, double hi)
{
    return {lo, hi, false, false};
}

constexpr Range
halfOpen(double lo, double hi)
{
    return {lo, hi, false, true};
}

/** One key of the `experiment v1` grammar. */
struct Param
{
    const char *name;
    ParamKind kind;
    /** Where the key is valid (the scope bits above). */
    unsigned scopes;
    Range range;
    /** What ScenarioSpec::get reads for an option its line leaves
     *  out; kNoDefault for none. */
    double fallback;
    /** A directive's arguments, for its arity error. */
    const char *usage;
    /** The message for a value the key rejects; `{key}` and
     *  `{value}` are substituted. Pinned by tests/test_spec.cpp. */
    const char *error;
};

// Every `experiment v1` key, declared once. Within a scope the order
// is pinned: it is the order of the "(known: ...)" lists in error
// messages and of `helixctl list`, so add keys at the end of their
// scope.
constexpr Param kParams[] = {
    // Top-level scalar directives.
    {"name", ParamKind::Text, kTop, kAny, kNoDefault, "name <identifier>",
     ""},
    {"output", ParamKind::Text, kTop, kAny, kNoDefault,
     "output <csv|json>", "output must be 'csv' or 'json', got '{value}'"},
    {"seed", ParamKind::UInt64, kTop | kEveryScenario, kAny, kNoDefault,
     "seed <uint64>", "seed must be an unsigned integer, got '{value}'"},
    {"warmup", ParamKind::Number, kTop | kEveryScenario, atLeast(0.0),
     kNoDefault, "<seconds>",
     "'{key}' must be a non-negative number of seconds, got '{value}'"},
    // Throughputs divide by the window, so it must be positive.
    {"measure", ParamKind::Number, kTop | kEveryScenario, above(0.0),
     kNoDefault, "<seconds>",
     "'{key}' must be a positive number of seconds, got '{value}'"},
    {"planner-budget", ParamKind::Number, kTop,
     closed(0.0, kMaxPlannerBudgetS), kNoDefault, "<seconds>",
     "'{key}' must be a number of seconds in [0, 86400], got '{value}'"},
    {"starvation-tolerance", ParamKind::Number, kTop, closed(0.0, 1.0),
     kNoDefault, "starvation-tolerance <fraction>",
     "starvation-tolerance must be a fraction in [0, 1], got '{value}'"},
    {"preemption-timeout", ParamKind::Number, kTop, atLeast(0.0),
     kNoDefault, "preemption-timeout <seconds>",
     "'{key}' must be a non-negative number of seconds, got '{value}'"},

    // Directives that introduce a record.
    {"cluster", ParamKind::Record, kTop, kAny, kNoDefault,
     "cluster <registry-name>", ""},
    {"model", ParamKind::Record, kTop, kAny, kNoDefault,
     "model <registry-name>", ""},
    {"system", ParamKind::Record, kTop, kAny, kNoDefault,
     "system <label> <planner> <scheduler>", ""},
    {"scenario", ParamKind::Record, kTop, kAny, kNoDefault,
     "scenario <kind> [key=value ...]", ""},
    {"tenant", ParamKind::Record, kTop, kAny, kNoDefault,
     "tenant <name> [key=value ...]", ""},

    // Scenario options. `utilization` has no default: each scenario
    // kind picks its own (exp::scenarioRunConfig).
    {"utilization", ParamKind::Number, kOffline | kOnline | kBursty | kChurn,
     above(0.0), kNoDefault, "",
     "scenario option 'utilization' must be positive, got '{value}'"},
    {"multiplier", ParamKind::Number, kBursty, atLeast(1.0), 5.0, "",
     "scenario option 'multiplier' must be at least 1, got '{value}'"},
    {"burst", ParamKind::Number, kBursty, above(0.0), 30.0, "",
     "scenario option '{key}' must be a positive number of seconds, "
     "got '{value}'"},
    {"gap", ParamKind::Number, kBursty, above(0.0), 270.0, "",
     "scenario option '{key}' must be a positive number of seconds, "
     "got '{value}'"},
    {"online", ParamKind::Flag, kChurn, kAny, 1.0, "",
     "scenario option 'online' must be 0 or 1, got '{value}'"},
    {"fail", ParamKind::Event, kChurn, kAny, kNoDefault, "",
     "scenario option '{key}' must be <node>@<fraction>, got '{value}'"},
    {"recover", ParamKind::Event, kChurn, kAny, kNoDefault, "",
     "scenario option '{key}' must be <node>@<fraction>, got '{value}'"},
    {"drift", ParamKind::Number, kChurn, halfOpen(0.0, 1.0), 0.0, "",
     "scenario option 'drift' must be a fraction in [0, 1), got "
     "'{value}'"},
    {"fraction", ParamKind::Number, kOnlinePeak, above(0.0), 0.75, "",
     "scenario option 'fraction' must be positive, got '{value}'"},

    // Tenant options (fair-share serving).
    {"weight", ParamKind::Number, kTenant, above(0.0), kNoDefault, "",
     "tenant option 'weight' must be positive, got '{value}'"},
    {"mix", ParamKind::Number, kTenant, closed(0.0, 1.0), kNoDefault, "",
     "tenant option 'mix' must be a fraction in [0, 1], got '{value}'"},
    {"slo-ttft", ParamKind::Number, kTenant, above(0.0), kNoDefault, "",
     "tenant option '{key}' must be a positive number of seconds, got "
     "'{value}'"},
    {"slo-tpot", ParamKind::Number, kTenant, above(0.0), kNoDefault, "",
     "tenant option '{key}' must be a positive number of seconds, got "
     "'{value}'"},
};

constexpr bool
sameName(const char *a, const char *b)
{
    while (*a != '\0' && *a == *b) {
        ++a;
        ++b;
    }
    return *a == *b;
}

constexpr bool
namesAreUnique()
{
    for (size_t i = 0; i < std::size(kParams); ++i) {
        for (size_t j = 0; j < i; ++j) {
            if (sameName(kParams[i].name, kParams[j].name))
                return false;
        }
    }
    return true;
}

static_assert(namesAreUnique(), "a key is declared twice in kParams");

const Param *
findParam(const std::string &name)
{
    for (const Param &param : kParams) {
        if (name == param.name)
            return &param;
    }
    return nullptr;
}

/** The keys valid in @p scope, in table order. */
std::vector<std::string>
namesIn(unsigned scope)
{
    std::vector<std::string> names;
    for (const Param &param : kParams) {
        if ((param.scopes & scope) != 0)
            names.emplace_back(param.name);
    }
    return names;
}

/** The scope bit of @p kind's scenario lines; 0 for an unknown kind. */
unsigned
scenarioScope(const std::string &kind)
{
    for (size_t i = 0; i < std::size(kScenarioKinds); ++i) {
        if (kind == kScenarioKinds[i])
            return 1u << i;
    }
    return 0;
}

/** Whether @p param accepts @p value. */
bool
accepts(const Param &param, double value)
{
    // Exact: a flag is the literal 0 or 1 as parsed from text.
    if (param.kind == ParamKind::Flag)
        return sameValue(value, 0.0) || sameValue(value, 1.0);
    const Range &range = param.range;
    return (range.loOpen ? value > range.lo : value >= range.lo) &&
           (range.hiOpen ? value < range.hi : value <= range.hi);
}

/** @p param's error message for the value text @p value. */
std::string
formatError(const Param &param, const std::string &value)
{
    const std::string text = param.error;
    std::string out;
    for (size_t i = 0; i < text.size();) {
        if (text.compare(i, 5, "{key}") == 0) {
            out += param.name;
            i += 5;
        } else if (text.compare(i, 7, "{value}") == 0) {
            out += value;
            i += 7;
        } else {
            out += text[i];
            ++i;
        }
    }
    return out;
}

/** One parsed `key=value` option. */
struct Option
{
    const Param *param = nullptr;
    std::string raw;
    double value = 0.0;
};

/**
 * Parse @p token as one `key=value` option of a @p record line
 * ("scenario" or "tenant") named @p owner, against the keys valid in
 * @p scope; @p seen holds the keys of the line's earlier options. An
 * Event option is repeatable and keeps its value as text for the
 * caller. On failure returns false with the reason in @p message.
 */
bool
parseOption(const std::string &token, const std::string &record,
            const std::string &owner, unsigned scope,
            std::vector<std::string> &seen, Option &option,
            std::string &message)
{
    size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
        message = record + " option '" + token + "' is not key=value";
        return false;
    }
    const std::string key = token.substr(0, eq);
    option.param = findParam(key);
    if (option.param == nullptr || (option.param->scopes & scope) == 0) {
        message = record + " '" + owner + "' does not take option '" +
                  key + "' (known: " + joinNames(namesIn(scope)) + ")";
        return false;
    }
    option.raw = token.substr(eq + 1);
    if (option.param->kind == ParamKind::Event)
        return true;
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
        message = "duplicate " + record + " option '" + key + "'";
        return false;
    }
    seen.push_back(key);
    const std::string non_numeric = record + " option '" + key +
                                    "' has non-numeric value '" +
                                    option.raw + "'";
    if (option.param->kind == ParamKind::UInt64) {
        // Seeds route through the double-valued option table; cap
        // them at 2^53 so the round trip is exact and never silently
        // shifts the RNG stream.
        uint64_t value = 0;
        if (!parseU64(option.raw, value)) {
            message = non_numeric;
            return false;
        }
        if (value > (uint64_t{1} << 53)) {
            message = record + " option '" + key +
                      "' exceeds 2^53 and would lose precision; use "
                      "the top-level '" + key + "' directive";
            return false;
        }
        option.value = static_cast<double>(value);
        return true;
    }
    if (!parseDouble(option.raw, option.value)) {
        message = non_numeric;
        return false;
    }
    if (!accepts(*option.param, option.value)) {
        message = formatError(*option.param, option.raw);
        return false;
    }
    return true;
}

std::string
num(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace

bool
ScenarioSpec::has(const std::string &key) const
{
    for (const auto &option : options) {
        if (option.first == key)
            return true;
    }
    return false;
}

double
ScenarioSpec::get(const std::string &key) const
{
    for (const auto &option : options) {
        if (option.first == key)
            return option.second;
    }
    const Param *param = findParam(key);
    HELIX_ASSERT(param != nullptr && !std::isnan(param->fallback));
    return param->fallback;
}

const std::vector<std::string> &
scenarioKinds()
{
    static const std::vector<std::string> kinds(
        std::begin(kScenarioKinds), std::end(kScenarioKinds));
    return kinds;
}

std::vector<std::string>
scenarioOptionKeys(const std::string &kind)
{
    const unsigned scope = scenarioScope(kind);
    return scope == 0 ? std::vector<std::string>{} : namesIn(scope);
}

std::vector<std::string>
tenantOptionKeys()
{
    return namesIn(kTenant);
}

std::string
experimentToString(const ExperimentSpec &spec)
{
    std::ostringstream out;
    out << "experiment v1\n";
    out << "name " << spec.name << "\n";
    out << "output " << spec.output << "\n";
    out << "seed " << spec.seed << "\n";
    out << "warmup " << num(spec.warmupS) << "\n";
    out << "measure " << num(spec.measureS) << "\n";
    out << "planner-budget " << num(spec.plannerBudgetS) << "\n";
    if (!spec.tenants.empty()) {
        out << "starvation-tolerance " << num(spec.starvationTolerance)
            << "\n";
        out << "preemption-timeout " << num(spec.preemptionTimeoutS)
            << "\n";
    }
    for (const SpecName &name : spec.clusters)
        out << "cluster " << name.value << "\n";
    for (const SpecName &name : spec.models)
        out << "model " << name.value << "\n";
    for (const SystemSpec &system : spec.systems) {
        out << "system " << system.label << " " << system.planner
            << " " << system.scheduler << "\n";
    }
    for (const TenantSpec &line : spec.tenants) {
        const scheduler::Tenant &tenant = line.tenant;
        out << "tenant " << tenant.name
            << " weight=" << num(tenant.weight);
        if (tenant.mix >= 0.0)
            out << " mix=" << num(tenant.mix);
        if (tenant.sloTtftS > 0.0)
            out << " slo-ttft=" << num(tenant.sloTtftS);
        if (tenant.sloTpotS > 0.0)
            out << " slo-tpot=" << num(tenant.sloTpotS);
        out << "\n";
    }
    for (const ScenarioSpec &scenario : spec.scenarios) {
        out << "scenario " << scenario.kind;
        for (const auto &option : scenario.options)
            out << " " << option.first << "=" << num(option.second);
        for (const ChurnEventSpec &event : scenario.events) {
            out << " " << (event.fail ? "fail=" : "recover=")
                << event.node << "@" << num(event.atFraction);
        }
        out << "\n";
    }
    return out.str();
}

std::optional<ExperimentSpec>
experimentFromString(const std::string &text, ParseError &error)
{
    LineReader reader(text);
    if (!checkHeader(reader, "experiment", 0, error))
        return std::nullopt;

    ExperimentSpec spec;
    std::map<std::string, int> seen_scalar;
    auto scalar_once = [&](const std::string &tag, int line) {
        auto inserted = seen_scalar.emplace(tag, line);
        if (!inserted.second) {
            error = {line,
                     "duplicate '" + tag + "' directive (first on line " +
                         std::to_string(inserted.first->second) + ")"};
            return false;
        }
        return true;
    };
    auto want_args = [&](const std::vector<std::string> &toks,
                         size_t n, const std::string &usage) {
        if (toks.size() == n + 1)
            return true;
        error = {reader.line(), "'" + toks[0] + "' needs " +
                                    std::to_string(n) +
                                    " argument(s): " + usage};
        return false;
    };
    // A cluster, model, system or tenant name may appear once among
    // @p records, whose names @p name_of reads.
    auto name_once = [&](const std::string &record, const auto &records,
                         auto name_of, const std::string &name,
                         int line) {
        for (const auto &earlier : records) {
            if (name_of(earlier) == name) {
                error = {line, "duplicate " + record + " '" + name +
                                   "' (first on line " +
                                   std::to_string(earlier.line) + ")"};
                return false;
            }
        }
        return true;
    };
    // One top-level scalar directive: its kind, range and error
    // message all come from its row in kParams.
    auto handle_scalar = [&](const Param &param,
                             const std::vector<std::string> &toks,
                             int line) {
        const std::string key = param.name;
        if (!want_args(toks, 1, param.usage) || !scalar_once(key, line))
            return false;
        const std::string &raw = toks[1];
        bool ok = true;
        if (param.kind == ParamKind::Text) {
            if (key == "name")
                spec.name = raw;
            else if (raw == "csv" || raw == "json")
                spec.output = raw;
            else
                ok = false;
        } else if (param.kind == ParamKind::UInt64) {
            ok = parseU64(raw, spec.seed);
        } else {
            double value = 0.0;
            ok = parseDouble(raw, value) && accepts(param, value);
            if (key == "warmup")
                spec.warmupS = value;
            else if (key == "measure")
                spec.measureS = value;
            else if (key == "planner-budget")
                spec.plannerBudgetS = value;
            else if (key == "starvation-tolerance")
                spec.starvationTolerance = value;
            else
                spec.preemptionTimeoutS = value;
        }
        if (!ok)
            error = {line, formatError(param, raw)};
        return ok;
    };

    while (reader.next()) {
        const auto &toks = reader.tokens();
        const std::string &tag = toks[0];
        const int line = reader.line();
        const Param *param = findParam(tag);
        if (param == nullptr || (param->scopes & kTop) == 0) {
            error = {line, "unknown directive '" + tag + "'"};
            return std::nullopt;
        }
        if (param->kind != ParamKind::Record) {
            if (!handle_scalar(*param, toks, line))
                return std::nullopt;
        } else if (tag == "cluster" || tag == "model") {
            if (!want_args(toks, 1, param->usage))
                return std::nullopt;
            std::vector<SpecName> &names =
                tag == "cluster" ? spec.clusters : spec.models;
            if (!name_once(tag, names,
                           [](const SpecName &name) { return name.value; },
                           toks[1], line))
                return std::nullopt;
            names.push_back({toks[1], line});
        } else if (tag == "system") {
            if (!want_args(toks, 3, param->usage))
                return std::nullopt;
            if (!name_once(tag, spec.systems,
                           [](const SystemSpec &system) {
                               return system.label;
                           },
                           toks[1], line))
                return std::nullopt;
            spec.systems.push_back({toks[1], toks[2], toks[3], line});
        } else if (tag == "scenario") {
            if (toks.size() < 2) {
                error = {line, "'scenario' needs a kind: " +
                                   std::string(param->usage)};
                return std::nullopt;
            }
            ScenarioSpec scenario;
            scenario.kind = toks[1];
            scenario.line = line;
            const unsigned scope = scenarioScope(scenario.kind);
            if (scope == 0) {
                error = {line, "unknown scenario kind '" +
                                   scenario.kind + "' (known: " +
                                   joinNames(scenarioKinds()) + ")"};
                return std::nullopt;
            }
            std::vector<std::string> seen;
            for (size_t i = 2; i < toks.size(); ++i) {
                Option option;
                if (!parseOption(toks[i], "scenario", scenario.kind, scope,
                                 seen, option, error.message)) {
                    error.line = line;
                    return std::nullopt;
                }
                const std::string key = option.param->name;
                if (option.param->kind != ParamKind::Event) {
                    scenario.options.emplace_back(key, option.value);
                    continue;
                }
                // Churn events are repeatable and carry a
                // <node>@<fraction> value instead of a number.
                const std::string &raw = option.raw;
                size_t at = raw.find('@');
                ChurnEventSpec event;
                event.fail = key == "fail";
                event.line = line;
                if (at == std::string::npos || at == 0 ||
                    at + 1 >= raw.size() ||
                    !parseInt(raw.substr(0, at), event.node) ||
                    !parseDouble(raw.substr(at + 1), event.atFraction)) {
                    error = {line, formatError(*option.param, raw)};
                    return std::nullopt;
                }
                scenario.events.push_back(event);
            }
            if (scenario.kind == "churn" && scenario.events.empty()) {
                error = {line, "churn scenario requires "
                               "fail=<node>@<fraction> events"};
                return std::nullopt;
            }
            spec.scenarios.push_back(std::move(scenario));
        } else {
            if (toks.size() < 2) {
                error = {line, "'tenant' needs a name: " +
                                   std::string(param->usage)};
                return std::nullopt;
            }
            TenantSpec entry;
            scheduler::Tenant &tenant = entry.tenant;
            tenant.name = toks[1];
            entry.line = line;
            // Names are written unquoted into the `tenant_stats` CSV
            // record, whose fields split on ';' and ':'.
            bool plain_name = std::all_of(
                tenant.name.begin(), tenant.name.end(), [](char c) {
                    return std::isalnum(static_cast<unsigned char>(c)) ||
                           c == '_' || c == '.' || c == '-';
                });
            if (!plain_name) {
                error = {line, "tenant name '" + tenant.name +
                                   "' must match [A-Za-z0-9_.-]+"};
                return std::nullopt;
            }
            if (!name_once(tag, spec.tenants,
                           [](const TenantSpec &other) {
                               return other.tenant.name;
                           },
                           tenant.name, line))
                return std::nullopt;
            std::vector<std::string> seen;
            for (size_t i = 2; i < toks.size(); ++i) {
                Option option;
                if (!parseOption(toks[i], "tenant", tenant.name, kTenant,
                                 seen, option, error.message)) {
                    error.line = line;
                    return std::nullopt;
                }
                const std::string key = option.param->name;
                if (key == "weight")
                    tenant.weight = option.value;
                else if (key == "mix")
                    tenant.mix = option.value;
                else if (key == "slo-ttft")
                    tenant.sloTtftS = option.value;
                else
                    tenant.sloTpotS = option.value;
            }
            if (std::find(seen.begin(), seen.end(), "weight") ==
                seen.end()) {
                error = {line, "tenant '" + tenant.name +
                                   "' requires weight=<w>"};
                return std::nullopt;
            }
            spec.tenants.push_back(std::move(entry));
        }
    }

    if (spec.clusters.empty()) {
        error = {0, "spec declares no 'cluster' lines"};
        return std::nullopt;
    }
    if (spec.models.empty()) {
        error = {0, "spec declares no 'model' lines"};
        return std::nullopt;
    }
    if (spec.systems.empty()) {
        error = {0, "spec declares no 'system' lines"};
        return std::nullopt;
    }
    if (spec.scenarios.empty()) {
        error = {0, "spec declares no 'scenario' lines"};
        return std::nullopt;
    }
    bool offline_seen = false;
    for (const ScenarioSpec &scenario : spec.scenarios) {
        if (scenario.kind == "offline")
            offline_seen = true;
        if (scenario.kind == "online-peak" && !offline_seen) {
            error = {scenario.line,
                     "online-peak needs an earlier offline scenario "
                     "to derive its arrival rate from"};
            return std::nullopt;
        }
    }
    int mixes = 0;
    for (const TenantSpec &entry : spec.tenants) {
        if (entry.tenant.mix >= 0.0)
            ++mixes;
    }
    if (mixes > 0) {
        double sum = 0.0;
        for (const TenantSpec &entry : spec.tenants) {
            if (entry.tenant.mix < 0.0) {
                error = {entry.line,
                         "tenant '" + entry.tenant.name +
                             "' needs mix=<fraction>: arrival mixes "
                             "are all-or-none"};
                return std::nullopt;
            }
            sum += entry.tenant.mix;
        }
        if (std::fabs(sum - 1.0) > 1e-9) {
            error = {spec.tenants.front().line,
                     "tenant mixes must sum to 1, got " + num(sum)};
            return std::nullopt;
        }
    }
    return spec;
}

} // namespace io
} // namespace helix
