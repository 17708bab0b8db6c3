/**
 * @file
 * The single source of truth for the experiment output schema.
 *
 * Every emitted column — the flat metric columns, the string identity
 * columns, and the tenancy/churn-gated composite columns — is one row
 * of the tables declared here, and both emitters (resultsToJson /
 * resultsToCsv in experiment.cpp) iterate these tables instead of
 * carrying their own copies of the column list. Each row also records
 * which SimMetrics / JobResult member feeds it and the token under
 * which the simulator fingerprint (tests/sim_fingerprint.h) renders
 * that member, so `tools/helix_analyze.py` (check id
 * `metrics-schema`) can verify the three artifacts — struct,
 * emitters, fingerprint — never drift apart: a new SimMetrics field must gain a schema row, and a
 * schema row's column must be emitted by BOTH formats and
 * fingerprinted by tests/sim_fingerprint.h.
 *
 * Changing a row changes the output byte format; docs/FILE_FORMATS.md
 * documents the column set consumers may rely on.
 */

#ifndef HELIX_EXP_SCHEMA_H
#define HELIX_EXP_SCHEMA_H

#include <cstddef>
#include <string>

namespace helix {
namespace exp {

struct JobResult;

/** A flat numeric column present in every row of both emitters. */
struct MetricColumnSpec
{
    /** Column name in CSV headers and JSON keys. */
    const char *column;
    /** Member feeding the column ("metrics.x" = SimMetrics field). */
    const char *field;
    /** Token identifying the field in the simulator fingerprint
     *  (tests/sim_fingerprint.h); "" = job-level field
     *  outside SimMetrics, which the fingerprint does not cover. */
    const char *fingerprint;
    double (*get)(const JobResult &);
};

/** A string identity column present in every row of both emitters. */
struct StringColumnSpec
{
    const char *column;
    const char *field;
    const std::string &(*get)(const JobResult &);
};

/**
 * A structured or conditionally-emitted column: churn logs and the
 * tenancy block. The emitters render these by hand (nested JSON
 * arrays, compact CSV records), so the schema row only carries the
 * names for the coherence check — the CSV column, the JSON key (they
 * differ for tenant_stats/tenants), the feeding member, and the
 * fingerprint token.
 */
struct CompositeColumnSpec
{
    const char *csvColumn;
    const char *jsonKey;
    const char *field;
    const char *fingerprint;
};

/**
 * A SimMetrics member that is intentionally NOT an output column —
 * either an intermediate the emitted values are derived from, or
 * per-node/per-link detail only the simulator fingerprint renders.
 * Listing it here (with its fingerprint token) is the explicit
 * opt-out that keeps the metrics-schema check exhaustive over the
 * struct.
 */
struct InternalMetricSpec
{
    const char *field;
    const char *fingerprint;
};

const MetricColumnSpec *metricColumns(size_t &count);
const StringColumnSpec *stringColumns(size_t &count);
const CompositeColumnSpec *compositeColumns(size_t &count);
const InternalMetricSpec *internalMetrics(size_t &count);

} // namespace exp
} // namespace helix

#endif // HELIX_EXP_SCHEMA_H
