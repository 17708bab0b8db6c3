#include "exp/experiment.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "cluster/generator.h"
#include "exp/schema.h"
#include "placement/partitioned_planner.h"
#include "util/logging.h"
#include "util/tasks.h"
#include "util/timer.h"

namespace helix {
namespace exp {

std::vector<JobResult>
runJobs(const std::vector<Job> &jobs, int threads)
{
    std::vector<JobResult> results(jobs.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
        tasks.push_back([&jobs, &results, i]() {
            const Job &job = jobs[i];
            HELIX_ASSERT(job.deployment != nullptr);
            JobResult &out = results[i];
            out.label = job.label;
            out.cluster = job.deployment->clusterSpec().summary();
            out.model = job.deployment->modelSpec().name;
            out.planner = job.deployment->plannerName();
            out.scheduler = toString(job.scheduler);
            out.arrivals = toString(job.run.arrivals);
            out.plannedThroughput = job.deployment->plannedThroughput();
            const WallTimer timer;
            auto sched = makeScheduler(*job.deployment, job.scheduler);
            out.metrics =
                runExperiment(*job.deployment, *sched, job.run);
            out.wallSeconds = timer.seconds();
        });
    }
    runTasks(tasks, threads);
    return results;
}

namespace {

/** JSON string escaping, including \uXXXX for control characters. */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
            break;
        }
    }
    return out;
}

std::string
num(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/**
 * Compact churn log: "fail:1@33=1234.5/repair;drift:2@50=987.6/drift".
 * The trailing /<resolve> distinguishes liveness repairs from
 * drift-triggered shrinks.
 */
std::string
formatChurnEvents(const sim::SimMetrics &metrics)
{
    std::string out;
    for (const sim::SimMetrics::FlowEvent &event :
         metrics.flowEvents) {
        if (!out.empty())
            out += ';';
        out += sim::toString(event.kind);
        out += ':' + std::to_string(event.node);
        out += '@' + num(event.time);
        out += '=' + num(event.flow);
        out += '/';
        out += sim::toString(event.resolveKind);
    }
    return out;
}

/**
 * Compact per-tenant log, one ';'-separated record per tenant:
 * "alpha:w=2:tput=123.4:arr=10:adm=8:done=7:rej=2:pre=1:ttft=0.95:tpot=-".
 * Attainments print "-" when no SLO was declared (or no samples).
 */
std::string
formatTenantStats(const sim::SimMetrics &metrics)
{
    std::string out;
    for (const sim::SimMetrics::TenantStat &t : metrics.tenantStats) {
        if (!out.empty())
            out += ';';
        out += t.name;
        out += ":w=" + num(t.weight);
        out += ":tput=" + num(t.decodeThroughput);
        out += ":arr=" + std::to_string(t.requestsArrived);
        out += ":adm=" + std::to_string(t.requestsAdmitted);
        out += ":done=" + std::to_string(t.requestsCompleted);
        out += ":rej=" + std::to_string(t.requestsRejected);
        out += ":pre=" + std::to_string(t.requestsPreempted);
        out += ":ttft=";
        out += t.ttftAttainment >= 0.0 ? num(t.ttftAttainment) : "-";
        out += ":tpot=";
        out += t.tpotAttainment >= 0.0 ? num(t.tpotAttainment) : "-";
    }
    return out;
}

/** Whether any result carries per-tenant statistics (runs with two
 *  or more tenants). The tenant emitter fields are gated on this, so
 *  output without arbitration carries no tenant fields. */
bool
anyTenantStats(const std::vector<JobResult> &results)
{
    return std::any_of(results.begin(), results.end(),
                       [](const JobResult &r) {
                           return !r.metrics.tenantStats.empty();
                       });
}

} // namespace

std::string
resultsToJson(const std::vector<JobResult> &results)
{
    size_t num_metric = 0;
    size_t num_string = 0;
    const MetricColumnSpec *metric_cols = metricColumns(num_metric);
    const StringColumnSpec *string_cols = stringColumns(num_string);
    std::ostringstream out;
    out << "[\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const JobResult &r = results[i];
        out << "  {";
        bool first = true;
        for (size_t c = 0; c < num_string; ++c) {
            const StringColumnSpec &col = string_cols[c];
            out << (first ? "" : ", ") << '"' << col.column
                << "\": \"" << jsonEscape(col.get(r)) << '"';
            first = false;
        }
        out << ", \"churn_events\": [";
        for (size_t e = 0; e < r.metrics.flowEvents.size(); ++e) {
            const sim::SimMetrics::FlowEvent &event =
                r.metrics.flowEvents[e];
            out << (e == 0 ? "" : ", ") << "{\"kind\": \""
                << sim::toString(event.kind) << "\", \"node\": "
                << event.node << ", \"time\": " << num(event.time)
                << ", \"flow\": " << num(event.flow)
                << ", \"resolve\": \""
                << sim::toString(event.resolveKind) << "\"}";
        }
        out << "]";
        for (size_t c = 0; c < num_metric; ++c) {
            const MetricColumnSpec &col = metric_cols[c];
            double value = col.get(r);
            // Zero-sample statistics emit null, not a fake 0.
            out << ", \"" << col.column << "\": "
                << (std::isnan(value) ? "null" : num(value));
        }
        if (!r.metrics.tenantStats.empty()) {
            out << ", \"requests_preempted\": "
                << r.metrics.requestsPreempted
                << ", \"jain_index\": " << num(r.metrics.jainIndex)
                << ", \"tenants\": [";
            for (size_t t = 0; t < r.metrics.tenantStats.size();
                 ++t) {
                const sim::SimMetrics::TenantStat &stat =
                    r.metrics.tenantStats[t];
                out << (t == 0 ? "" : ", ") << "{\"name\": \""
                    << jsonEscape(stat.name)
                    << "\", \"weight\": " << num(stat.weight)
                    << ", \"decode_throughput\": "
                    << num(stat.decodeThroughput)
                    << ", \"requests_arrived\": "
                    << stat.requestsArrived
                    << ", \"requests_admitted\": "
                    << stat.requestsAdmitted
                    << ", \"requests_completed\": "
                    << stat.requestsCompleted
                    << ", \"requests_rejected\": "
                    << stat.requestsRejected
                    << ", \"requests_preempted\": "
                    << stat.requestsPreempted
                    << ", \"slo_ttft\": " << num(stat.sloTtftS)
                    << ", \"slo_tpot\": " << num(stat.sloTpotS)
                    << ", \"ttft_attainment\": "
                    << (stat.ttftAttainment >= 0.0
                            ? num(stat.ttftAttainment)
                            : "null")
                    << ", \"tpot_attainment\": "
                    << (stat.tpotAttainment >= 0.0
                            ? num(stat.tpotAttainment)
                            : "null")
                    << "}";
            }
            out << "]";
        }
        out << "}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return out.str();
}

std::string
resultsToCsv(const std::vector<JobResult> &results)
{
    size_t num_metric = 0;
    size_t num_string = 0;
    const MetricColumnSpec *metric_cols = metricColumns(num_metric);
    const StringColumnSpec *string_cols = stringColumns(num_string);
    std::ostringstream out;
    bool tenancy = anyTenantStats(results);
    bool first = true;
    for (size_t c = 0; c < num_string; ++c) {
        out << (first ? "" : ",") << string_cols[c].column;
        first = false;
    }
    out << ",churn_events";
    for (size_t c = 0; c < num_metric; ++c)
        out << ',' << metric_cols[c].column;
    if (tenancy)
        out << ",requests_preempted,jain_index,tenant_stats";
    out << '\n';
    for (const JobResult &r : results) {
        auto quoted = [&out](const std::string &field) {
            // Quote string fields (cluster summaries contain commas)
            // and double embedded quotes per RFC 4180.
            out << '"';
            for (char c : field) {
                if (c == '"')
                    out << '"';
                out << c;
            }
            out << '"';
        };
        first = true;
        for (size_t c = 0; c < num_string; ++c) {
            if (!first)
                out << ',';
            first = false;
            quoted(string_cols[c].get(r));
        }
        out << ',';
        quoted(formatChurnEvents(r.metrics));
        for (size_t c = 0; c < num_metric; ++c) {
            double value = metric_cols[c].get(r);
            out << ',';
            // Zero-sample statistics emit an empty field, not a
            // fake 0.
            if (!std::isnan(value))
                out << num(value);
        }
        if (tenancy) {
            out << ',' << r.metrics.requestsPreempted << ','
                << num(r.metrics.jainIndex) << ',';
            quoted(formatTenantStats(r.metrics));
        }
        out << '\n';
    }
    return out.str();
}

namespace {

struct ClusterEntry
{
    const char *name;
    cluster::ClusterSpec (*make)();
};

struct ModelEntry
{
    const char *name;
    model::TransformerSpec (*make)();
};

struct PlannerEntry
{
    const char *name;
    std::unique_ptr<placement::Planner> (*make)(double budget_s,
                                                int threads);
};

// The registries: each *ByName lookup and each *Names() list reads
// its table, so a name resolves exactly when it is listed.
const ClusterEntry kClusters[] = {
    {"single24", cluster::setups::singleCluster24},
    {"geo24", cluster::setups::geoDistributed24},
    {"hetero42", cluster::setups::highHeterogeneity42},
    {"planner10", cluster::setups::plannerCluster10},
};

const ModelEntry kModels[] = {
    {"llama30b", model::catalog::llama30b},
    {"llama70b", model::catalog::llama70b},
    {"gpt3-175b", model::catalog::gpt3_175b},
    {"grok1-314b", model::catalog::grok1_314b},
    {"llama3-405b", model::catalog::llama3_405b},
};

/** A time-budgeted flow-search planner, "helix" or
 *  "helix-partitioned". */
template <typename SearchPlanner>
std::unique_ptr<placement::Planner>
budgetedPlanner(double budget_s, int threads)
{
    placement::HelixPlannerConfig config;
    config.timeBudgetSeconds = budget_s;
    return std::make_unique<SearchPlanner>(config, threads);
}

/** A baseline planner, constructed from @p Args; it takes no budget
 *  and no threads. */
template <typename Baseline, auto... Args>
std::unique_ptr<placement::Planner>
baselinePlanner(double, int)
{
    return std::make_unique<Baseline>(Args...);
}

const PlannerEntry kPlanners[] = {
    {"helix", budgetedPlanner<placement::HelixPlanner>},
    {"helix-partitioned", budgetedPlanner<placement::PartitionedPlanner>},
    {"swarm", baselinePlanner<placement::SwarmPlanner>},
    {"petals", baselinePlanner<placement::PetalsPlanner>},
    {"sp", baselinePlanner<placement::SeparatePipelinesPlanner, false>},
    {"sp+", baselinePlanner<placement::SeparatePipelinesPlanner, true>},
    {"uniform", baselinePlanner<placement::UniformPlanner>},
};

/** The entry of @p table named @p name, or nullptr. */
template <typename Entry, size_t N>
const Entry *
findEntry(const Entry (&table)[N], const std::string &name)
{
    for (const Entry &entry : table) {
        if (name == entry.name)
            return &entry;
    }
    return nullptr;
}

/** The names of @p table's entries, in table order. */
template <typename Entry, size_t N>
std::vector<std::string>
entryNames(const Entry (&table)[N])
{
    std::vector<std::string> names;
    for (const Entry &entry : table)
        names.emplace_back(entry.name);
    return names;
}

} // namespace

std::optional<cluster::ClusterSpec>
clusterByName(const std::string &name)
{
    if (const ClusterEntry *entry = findEntry(kClusters, name))
        return entry->make();
    if (name.rfind("gen:", 0) == 0) {
        auto config = cluster::gen::parseGeneratorName(name);
        if (!config)
            return std::nullopt;
        return cluster::gen::generate(*config);
    }
    return std::nullopt;
}

std::optional<model::TransformerSpec>
modelByName(const std::string &name)
{
    if (const ModelEntry *entry = findEntry(kModels, name))
        return entry->make();
    return std::nullopt;
}

std::unique_ptr<placement::Planner>
plannerByName(const std::string &name, double planner_budget_s,
              int threads)
{
    if (const PlannerEntry *entry = findEntry(kPlanners, name))
        return entry->make(planner_budget_s, threads);
    return nullptr;
}

std::optional<SchedulerKind>
schedulerKindByName(const std::string &name)
{
    if (const SchedulerName *entry = findEntry(kSchedulerNames, name))
        return entry->kind;
    return std::nullopt;
}

const std::vector<std::string> &
clusterNames()
{
    static const std::vector<std::string> names = entryNames(kClusters);
    return names;
}

const std::vector<std::string> &
modelNames()
{
    static const std::vector<std::string> names = entryNames(kModels);
    return names;
}

const std::vector<std::string> &
plannerNames()
{
    static const std::vector<std::string> names = entryNames(kPlanners);
    return names;
}

const std::vector<std::string> &
schedulerNames()
{
    static const std::vector<std::string> names =
        entryNames(kSchedulerNames);
    return names;
}

} // namespace exp
} // namespace helix
