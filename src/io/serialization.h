/**
 * @file
 * Plain-text serialization of clusters and placements.
 *
 * Enables artifact-style reproducibility: a cluster description and
 * the placement a planner produced can be written to disk and
 * reloaded bit-for-bit, so experiments can be re-run and placements
 * audited without re-planning.
 *
 * Formats are line-oriented (one record per line, `#` starts a
 * comment, blank lines are ignored); docs/FILE_FORMATS.md is the
 * normative reference:
 *
 *   cluster v1
 *   node <name> <gpu> <tflops> <memGiB> <bwGBs> <powerW> <gpus> <region>
 *   link <from> <to> <bandwidthBps> <latencyS>     # -1 = coordinator
 *
 *   placement v1 <numNodes>
 *   <start> <count>          # one line per node, in node order
 *
 * Every parser returns nullopt on malformed input and fills a
 * ParseError {line, message}, so tools such as `helixctl validate`
 * can report actionable, line-accurate errors.
 */

#ifndef HELIX_IO_SERIALIZATION_H
#define HELIX_IO_SERIALIZATION_H

#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "placement/placement.h"

namespace helix {
namespace io {

/** A structured parse failure: 1-based source line + message. */
struct ParseError
{
    /** 1-based line the error was detected on (0 = whole input). */
    int line = 0;
    std::string message;

    /** "line N: message" (or just the message when line == 0). */
    [[nodiscard]] std::string str() const;
};

/** Serialize a cluster: its nodes, then a link record for every
 *  directed pair in (from, to) order. */
[[nodiscard]] std::string clusterToString(const cluster::ClusterSpec &cluster);

/**
 * Parse a cluster; on failure returns nullopt and fills @p error with
 * the offending line. Link records become per-pair overrides; a
 * negative bandwidth or latency, or a repeated (from, to) pair, is an
 * error.
 */
[[nodiscard]] std::optional<cluster::ClusterSpec> clusterFromString(
    const std::string &text, ParseError &error);

/** Serialize a model placement. */
[[nodiscard]] std::string placementToString(
    const placement::ModelPlacement &placement);

/** Parse a placement; on failure returns nullopt and fills @p error. */
[[nodiscard]] std::optional<placement::ModelPlacement> placementFromString(
    const std::string &text, ParseError &error);

/** Write @p text to @p path. @return false on I/O error. */
[[nodiscard]] bool writeFile(const std::string &path, const std::string &text);

/** Read the whole file at @p path; nullopt on I/O error. */
[[nodiscard]] std::optional<std::string> readFile(const std::string &path);

// --- Line-oriented parsing substrate (shared with spec.h) ----------

/**
 * Splits text into whitespace-tokenized lines, dropping blank lines
 * and `#` comments while remembering each line's 1-based number, so
 * parsers can report errors against the original file.
 */
class LineReader
{
  public:
    explicit LineReader(const std::string &text);

    /** Advance to the next non-empty line. @return false at EOF. */
    bool next();

    /** Tokens of the current line. */
    [[nodiscard]] const std::vector<std::string> &tokens() const { return toks; }

    /** 1-based number of the current line in the source text. */
    [[nodiscard]] int line() const { return lineNo; }

  private:
    std::vector<std::pair<int, std::vector<std::string>>> lines;
    size_t cursor = 0;
    std::vector<std::string> toks;
    int lineNo = 0;
};

/** Parse helpers: return false without touching @p out on failure.
 *  parseDouble rejects inf/nan — every quantity in these formats is
 *  finite. */
[[nodiscard]] bool parseInt(const std::string &token, int &out);
[[nodiscard]] bool parseLong(const std::string &token, long &out);
[[nodiscard]] bool parseU64(const std::string &token, uint64_t &out);
[[nodiscard]] bool parseDouble(const std::string &token, double &out);

/**
 * Check a "<format> v1 [<count>]" header line (@p extra = number of
 * tokens after the version). Reads one line from @p reader; on
 * failure fills @p error and returns false.
 */
[[nodiscard]] bool checkHeader(LineReader &reader, const char *format, size_t extra,
                 ParseError &error);

/** "a, b, c" — for known-names lists in error messages. */
[[nodiscard]] std::string joinNames(const std::vector<std::string> &names);

} // namespace io
} // namespace helix

#endif // HELIX_IO_SERIALIZATION_H
