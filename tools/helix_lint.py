#!/usr/bin/env python3
"""helix-lint: the project's static checker.

Byte-identical metrics and emitter output is this repo's load-bearing
guarantee; the golden tests enforce it dynamically. helix-lint keeps
the rules behind it that no compiler flag and no check in .clang-tidy
can see (docs/DEVELOPMENT.md lists what the compiler owns instead):

  raw-random             no unseeded randomness or clock reads outside
                         the seeded RNG and the budget timers
  unordered-iter         no std::unordered_* containers in src/, bench/
  hot-path-std-function  no std::function in src/sim/
  raw-thread             no threads started in src/ outside the
                         parallel-task runner
  param-registry         spec-parser keys declared in the key table
  metrics-schema         SimMetrics, the schema tables, both emitters
                         and the simulator fingerprint agree
  param-docs             the spec registry and the spec docs agree
  bench-docs             every bench binary has a README table row
  suppression            allow() names a known check and a reason

The first five scan each linted file; the next three read fixed files
under the tree root. Findings print as ``path:line: [check-id]
message`` with paths relative to the root. A finding is suppressed
only by a directive on its line or the line above, and the
justification is mandatory:

    // helix-lint: allow(<check-id>) <justification>
    <!-- helix-lint: allow(<check-id>) <justification> -->

Exit codes: 0 clean, 1 findings, 2 usage/IO error.

Usage:
  tools/helix_lint.py --all          # src/ tests/ bench/ examples/
  tools/helix_lint.py [--checks id,id] file.cpp ...
  tools/helix_lint.py --root tests/data/lint/<case> --all
"""

import argparse
import re
import sys
from collections import namedtuple
from functools import cached_property
from pathlib import Path

CHECKS = {
    "raw-random": (
        "unseeded randomness or wall-clock reads outside the seeded "
        "RNG and the whitelisted budget timers"),
    "unordered-iter": (
        "std::unordered_* containers in determinism-critical code "
        "(src/, bench/)"),
    "hot-path-std-function": (
        "std::function in the simulator hot path (src/sim/)"),
    "raw-thread": (
        "std::thread, std::jthread or std::async in src/ outside the "
        "parallel-task runner (src/util/tasks.{h,cpp})"),
    "param-registry": (
        "spec-parser comparison against a key not declared in "
        "the key table (kParams in src/io/spec.cpp)"),
    "metrics-schema": (
        "drift between SimMetrics, the schema tables "
        "(src/exp/schema.cpp), the CSV/JSON emitters, and the "
        "simulator fingerprint"),
    "param-docs": (
        "key-table key missing from the docs, or a doc example "
        "using an undeclared key"),
    "bench-docs": "bench binary without a row in the README bench table",
    "suppression": (
        "malformed allow() directive (unknown check-id or missing "
        "justification)"),
}

Finding = namedtuple("Finding", "path line check message")


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Source model
# ---------------------------------------------------------------------------

DIRECTIVE_RE = re.compile(
    r"(?://|<!--)\s*helix-lint:\s*allow\(([^)]*)\)\s*(.*?)\s*(?:-->)?\s*$")


def strip_code(lines):
    """Blank out comments and string/char literal contents."""
    out = []
    in_block = False
    for line in lines:
        res = []
        i, n = 0, len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                in_block = end < 0
                i = n if in_block else end + 2
                continue
            pair = line[i:i + 2]
            if pair == "//":
                break
            if pair == "/*":
                in_block = True
                i += 2
                continue
            ch = line[i]
            res.append(ch)
            i += 1
            if ch in "\"'":
                while i < n and line[i] != ch:
                    i += 2 if line[i] == "\\" else 1
                res.append(ch)
                i += 1
        out.append("".join(res))
    return out


class Source:
    """One file: raw lines, code-only lines, and its allow() lines."""

    def __init__(self, path, rel):
        self.rel = rel
        self.raw_lines = path.read_text(
            encoding="utf-8", errors="replace").split("\n")
        self.allows = {}  # line -> {check id}
        self.bad_directives = []
        for lineno, line in enumerate(self.raw_lines, start=1):
            m = DIRECTIVE_RE.search(line)
            if not m:
                continue
            check, reason = m.group(1).strip(), m.group(2)
            if check not in CHECKS:
                self.bad_directives.append(Finding(
                    rel, lineno, "suppression",
                    f"allow() names unknown check '{check}'"))
            elif not reason:
                self.bad_directives.append(Finding(
                    rel, lineno, "suppression",
                    f"allow({check}) requires a justification string"))
            else:
                self.allows.setdefault(lineno, set()).add(check)

    def allowed(self, finding):
        return any(finding.check in self.allows.get(line, ())
                   for line in (finding.line, finding.line - 1))

    @cached_property
    def code_lines(self):
        return strip_code(self.raw_lines)

    @cached_property
    def text(self):
        return "\n".join(self.raw_lines)


class Tree:
    """The files under one root, loaded once each."""

    def __init__(self, root):
        self.root = root
        self.sources = {}

    def load(self, path):
        try:
            rel = path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            rel = path.as_posix()
        if rel not in self.sources:
            if not path.is_file():
                raise UsageError(f"{path}: file not found")
            self.sources[rel] = Source(path, rel)
        return self.sources[rel]

    def artifact(self, rel):
        return self.load(self.root / rel)


# ---------------------------------------------------------------------------
# Per-file checks
# ---------------------------------------------------------------------------

RNG_FILES = {"src/util/random.h", "src/util/random.cpp"}

# The one src/ file that may read std::chrono::steady_clock: the wall
# timer behind planner search budgets and runner wall time. Its readings
# feed reported timings and budget cutoffs, never metric values.
TIMING_FILES = {"src/util/timer.h"}

# The src/ files that may start threads: helix::runTasks, which the
# experiment runner and the flow search share.
TASK_FILES = {"src/util/tasks.h", "src/util/tasks.cpp"}

# (check id, token regex, path prefixes ("" = every path), exempt
# files, message). A match on a code-only line of an in-scope file is a
# finding that names the matched token.
BANNED_TOKENS = [
    ("raw-random",
     re.compile(r"(?<![\w.:])(?:s?rand(?=\s*\()|clock(?=\s*\(\s*\))"
                r"|time(?=\s*\(\s*(?:0|NULL|nullptr)?\s*\)))"
                r"|\bstd::time(?=\s*\()|\b(?:localtime|gmtime)(?=\s*\()"
                r"|\b(?:random_device|mt19937(?:_64)?|default_random_engine"
                r"|gettimeofday|system_clock|high_resolution_clock)\b"),
     ("",), RNG_FILES,
     "breaks run-to-run determinism; draw from the seeded helix::Rng "
     "(src/util/random.h)"),
    ("raw-random", re.compile(r"\bsteady_clock\b"), ("src/",),
     TIMING_FILES,
     "outside the wall timer (src/util/timer.h); metric values must "
     "not depend on wall time"),
    ("unordered-iter", re.compile(r"\bunordered_(?:multi)?(?:map|set)\b"),
     ("src/", "bench/"), (),
     "iterates in implementation-defined order; use std::map, std::set "
     "or a sorted vector"),
    ("hot-path-std-function", re.compile(r"\bstd::function(?=\s*<)"),
     ("src/sim/",), (),
     "allocates per event; use the trivially-copyable tagged-union "
     "Event and reused batch storage"),
    ("raw-thread", re.compile(r"\bstd::(?:j?thread|async)\b"),
     ("src/",), TASK_FILES,
     "outside the parallel-task runner; run the work as tasks on "
     "helix::runTasks (src/util/tasks.h)"),
]


def check_banned_tokens(tree, src, selected):
    rows = [row for row in BANNED_TOKENS
            if row[0] in selected and src.rel.startswith(row[2])
            and src.rel not in row[3]]
    for lineno, line in enumerate(src.code_lines, start=1):
        for check, pattern, _scope, _exempt, message in rows:
            m = pattern.search(line)
            if m:
                yield Finding(src.rel, lineno, check,
                              f"{m.group(0)} {message}")


SPEC_PARSER_PREFIXES = ("src/io/spec", "src/exp/spec")
PARAMS_FILE = "src/io/spec.cpp"
# The table runs from `kParams[] = {` to its column-0 `};`; each row
# opens a line with its quoted key, `{"warmup", ...`.
PARAMS_TABLE_RE = re.compile(r"\bkParams\[\]\s*=\s*\{")
PARAM_DECL_RE = re.compile(r'^\s*\{\s*"([^"]+)"')
# `key == "warmup"`, `"warmup" != tag`, `opt->key() == "weight"`.
KEY_CMP_RE = re.compile(
    r'\b(?:key|tag)\b(?:\(\))?\s*[=!]=\s*"([a-z][a-z0-9-]*)"'
    r'|"([a-z][a-z0-9-]*)"\s*[=!]=\s*[\w.>-]*?\b(?:key|tag)\b')


def declared_params(tree):
    """Key -> declaring line, from the rows of the key table; a quoted
    string elsewhere in the file declares nothing."""
    declared = {}
    in_table = False
    for lineno, line in enumerate(
            tree.artifact(PARAMS_FILE).raw_lines, start=1):
        if not in_table:
            in_table = bool(PARAMS_TABLE_RE.search(line))
        elif line.startswith("};"):
            break
        else:
            for key in PARAM_DECL_RE.findall(line):
                declared.setdefault(key, lineno)
    return declared


def check_param_registry(tree, src, selected):
    if "param-registry" not in selected or \
            not src.rel.startswith(SPEC_PARSER_PREFIXES):
        return
    declared = declared_params(tree)
    # Raw lines: the code-only view blanks the string literals.
    for lineno, line in enumerate(src.raw_lines, start=1):
        for m in KEY_CMP_RE.finditer(line.split("//", 1)[0]):
            key = m.group(1) or m.group(2)
            if key not in declared:
                yield Finding(
                    src.rel, lineno, "param-registry",
                    f"spec key '{key}' is parsed ad-hoc; declare it in "
                    f"the key table ({PARAMS_FILE}) so its range, "
                    "usage, and the pinned known-key lists stay "
                    "accurate")


FILE_CHECKS = (check_banned_tokens, check_param_registry)


# ---------------------------------------------------------------------------
# Tree checks: facts several files must agree on
# ---------------------------------------------------------------------------

METRICS_HEADER = "src/sim/simulator.h"
SCHEMA_FILE = "src/exp/schema.cpp"
EMITTER_FILE = "src/exp/experiment.cpp"
FINGERPRINT_FILE = "tests/sim_fingerprint.h"
METRICS_STRUCT = "SimMetrics"


def struct_fields(src, name):
    """Field -> line for the depth-1 `;` declarations of the column-0
    `struct <name>` block (member functions are skipped)."""
    fields = {}
    start = next((i for i, line in enumerate(src.raw_lines)
                  if re.match(rf"struct {name}\b", line)), None)
    if start is None:
        return fields
    depth, decl, decl_line = 0, "", None
    lines = zip(src.raw_lines[start:], src.code_lines[start:])
    for lineno, (raw, code) in enumerate(lines, start=start + 1):
        if raw.startswith("};"):
            break
        for ch in code:
            if ch in "{}":
                depth += 1 if ch == "{" else -1
                decl, decl_line = "", None
            elif depth != 1:
                continue
            elif ch == ";":
                words = re.findall(r"[A-Za-z_]\w*", decl.split("=")[0])
                if words and "(" not in decl:
                    fields.setdefault(words[-1], decl_line)
                decl, decl_line = "", None
            else:
                if decl_line is None and not ch.isspace():
                    decl_line = lineno
                decl += ch
    return fields


def function_body(src, name):
    """The column-0 definition of @p name through the next column-0
    `}`, or None."""
    lines = src.raw_lines
    start = next((i for i, line in enumerate(lines)
                  if re.match(rf"{name}\(", line)), None)
    if start is None:
        return None
    end = next((i for i in range(start, len(lines))
                if lines[i].startswith("}")), len(lines))
    return "\n".join(lines[start:end + 1])


# Leading string literals of each schema table's rows, by role; the
# tables iterated by both emitters name their accessor.
SCHEMA_ROWS = {
    "MetricColumnSpec": (("column", "field", "fingerprint"),
                         "metricColumns"),
    "StringColumnSpec": (("column", "field"), "stringColumns"),
    "CompositeColumnSpec": (("csv", "json", "field", "fingerprint"),
                            None),
    "InternalMetricSpec": (("field", "fingerprint"), None),
}
SCHEMA_TABLE_RE = re.compile(
    r"\b(" + "|".join(SCHEMA_ROWS) + r")\b[^=;]*\[\]\s*=\s*\{")
SCHEMA_ROW_RE = re.compile(r"\{\s*((?:\"(?:[^\"\\]|\\.)*\"\s*,?\s*)+)")
STRING_RE = re.compile(r"\"((?:[^\"\\]|\\.)*)\"")


def schema_rows(src):
    """(table kind, leading string literals, line) for every row of the
    schema tables, each table ending at its column-0 `};`."""
    text = src.text
    for table in SCHEMA_TABLE_RE.finditer(text):
        end = text.find("\n};", table.end())
        region = text[table.end():end if end >= 0 else len(text)]
        first = text.count("\n", 0, table.end()) + 1
        for row in SCHEMA_ROW_RE.finditer(region):
            yield (table.group(1), STRING_RE.findall(row.group(1)),
                   first + region.count("\n", 0, row.start()))


def mentions(text, word):
    return re.search(rf"\b{re.escape(word)}\b", text) is not None


def check_metrics_schema(tree):
    metrics = tree.artifact(METRICS_HEADER)
    schema = tree.artifact(SCHEMA_FILE)
    emitters = tree.artifact(EMITTER_FILE)
    fingerprint = tree.artifact(FINGERPRINT_FILE).text

    def finding(src, line, message):
        return Finding(src.rel, line, "metrics-schema", message)

    fields = struct_fields(metrics, METRICS_STRUCT)
    if not fields:
        yield finding(metrics, 1, f"struct {METRICS_STRUCT} not found")
        return
    bodies = {}
    for name in ("resultsToJson", "resultsToCsv"):
        bodies[name] = function_body(emitters, name)
        if bodies[name] is None:
            yield finding(emitters, 1, f"emitter '{name}' not found")
    if None in bodies.values():
        return

    covered = set()
    for kind, strings, line in schema_rows(schema):
        roles, accessor = SCHEMA_ROWS[kind]
        if len(strings) != len(roles):
            yield finding(
                schema, line,
                f"malformed {kind} row: expected {len(roles)} leading "
                f"string literals, found {len(strings)}")
            continue
        row = dict(zip(roles, strings))
        field = row["field"]
        member = None
        if field.startswith("metrics."):
            member = field[len("metrics."):].split(".")[0]
            covered.add(member)
            if member not in fields:
                yield finding(
                    schema, line,
                    f"schema row names '{field}' but {METRICS_STRUCT} "
                    f"has no field '{member}'")
        token = row.get("fingerprint")
        if token == "" and member is not None:
            yield finding(
                schema, line,
                f"schema row for '{field}' has an empty fingerprint "
                f"token; every {METRICS_STRUCT}-backed row must be "
                "covered by the simulator fingerprint")
        elif token and token not in fingerprint:
            yield finding(
                schema, line,
                f"fingerprint token '{token}' for '{field}' does not "
                f"appear in {FINGERPRINT_FILE}")
        if "column" in row:
            for name, body in bodies.items():
                if not (mentions(body, row["column"]) or
                        mentions(body, accessor)):
                    yield finding(
                        schema, line,
                        f"column '{row['column']}' is not emitted by "
                        f"{name}")
        if "csv" in row and not mentions(bodies["resultsToCsv"],
                                         row["csv"]):
            yield finding(
                schema, line,
                f"composite CSV column '{row['csv']}' is not emitted "
                "by resultsToCsv")
        if "json" in row and not mentions(bodies["resultsToJson"],
                                          row["json"]):
            yield finding(
                schema, line,
                f"composite JSON key '{row['json']}' is not emitted by "
                "resultsToJson")

    for name, line in sorted(fields.items(), key=lambda kv: kv[1]):
        if name not in covered:
            yield finding(
                metrics, line,
                f"{METRICS_STRUCT} field '{name}' has no row in any "
                f"schema table ({SCHEMA_FILE}); add a column, "
                "composite, or internal-metric row")


SPEC_DOCS = ("docs/FILE_FORMATS.md", "docs/SCENARIOS.md")
FENCE_RE = re.compile(r"^\s*```")
KV_RE = re.compile(r"(?<![\w.:=<-])([A-Za-z][A-Za-z0-9-]*)=")
# Keys whose values are free-form name=value pairs (tenant names).
FREEFORM_KV_KEYS = {"mix"}


def check_param_docs(tree):
    declared = declared_params(tree)
    docs = [tree.artifact(rel) for rel in SPEC_DOCS]
    if not declared:
        yield Finding(PARAMS_FILE, 1, "param-docs",
                      "no key table rows found")
        return
    for key, lineno in sorted(declared.items(),
                              key=lambda kv: (kv[1], kv[0])):
        pattern = re.compile(rf"(?<![\w-]){re.escape(key)}(?![\w-])")
        if not any(pattern.search(doc.text) for doc in docs):
            yield Finding(
                PARAMS_FILE, lineno, "param-docs",
                f"spec key '{key}' is not documented in "
                f"{', '.join(SPEC_DOCS)}")

    for doc in docs:
        # None = outside fences; "head" = the fence's first content line
        # decides; "spec" = an `experiment v1` example; "skip" = other.
        mode = None
        for lineno, line in enumerate(doc.raw_lines, start=1):
            if FENCE_RE.match(line):
                mode = None if mode is not None else "head"
                continue
            stripped = line.strip()
            if mode in (None, "skip") or not stripped or \
                    stripped.startswith("#"):
                continue
            if mode == "head":
                mode = ("spec" if stripped.startswith("experiment v1")
                        else "skip")
                continue
            head = stripped.split()[0]
            keys = [head]
            if head in declared and head not in FREEFORM_KV_KEYS:
                keys = KV_RE.findall(stripped)
            for key in keys:
                if key not in declared:
                    yield Finding(
                        doc.rel, lineno, "param-docs",
                        f"doc example uses undeclared spec key '{key}'")


README = "README.md"


def check_bench_docs(tree):
    readme = tree.artifact(README).text
    for cpp in sorted((tree.root / "bench").glob("*.cpp")):
        src = tree.load(cpp)
        binary = f"bench_{cpp.stem}"
        if not mentions(readme, binary):
            yield Finding(src.rel, 1, "bench-docs",
                          f"bench binary '{binary}' has no row in "
                          f"{README} (bench table)")


TREE_CHECKS = {
    "metrics-schema": check_metrics_schema,
    "param-docs": check_param_docs,
    "bench-docs": check_bench_docs,
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

LINT_DIRS = ("src", "tests", "bench", "examples")
SOURCE_SUFFIXES = {".cpp", ".h"}


def discover(root):
    files = []
    for top in LINT_DIRS:
        for path in sorted((root / top).rglob("*")):
            rel = path.relative_to(root).as_posix()
            if path.suffix in SOURCE_SUFFIXES and \
                    not rel.startswith("tests/data/"):
                files.append(path)
    return files


def lint(tree, files, selected):
    """Every unsuppressed finding, sorted and deduplicated."""
    findings = []
    for path in files:
        src = tree.load(path)
        for check in FILE_CHECKS:
            findings.extend(check(tree, src, selected))
    for check_id, check in TREE_CHECKS.items():
        if check_id in selected:
            findings.extend(check(tree))
    findings = [f for f in findings
                if not tree.sources[f.path].allowed(f)]
    for src in tree.sources.values():
        findings.extend(src.bad_directives)
    return sorted(set(findings))


def main(argv):
    parser = argparse.ArgumentParser(
        prog="helix_lint.py",
        description="Determinism and cross-artifact checks for the "
                    "helix tree.")
    parser.add_argument("files", nargs="*", help="files to lint")
    parser.add_argument("--all", action="store_true",
                        help="lint src/, tests/, bench/, examples/")
    parser.add_argument("--root", metavar="DIR",
                        default=Path(__file__).resolve().parent.parent,
                        type=Path,
                        help="tree root for --all, the tree checks and "
                             "the path scopes (default: this repo)")
    parser.add_argument("--checks", metavar="ID[,ID...]",
                        help="run only the named checks")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the check registry and exit")
    args = parser.parse_args(argv)

    if args.list_checks:
        for check_id in sorted(CHECKS):
            print(f"{check_id}: {CHECKS[check_id]}")
        return 0

    selected = set(CHECKS)
    if args.checks:
        selected = set(args.checks.split(",")) | {"suppression"}
        unknown = selected - set(CHECKS)
        if unknown:
            print(f"error: unknown check(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    tree = Tree(args.root.resolve())
    files = [Path(f) for f in args.files]
    if args.all:
        files.extend(discover(tree.root))
    if not files:
        print("error: no input files (use --all or list files)",
              file=sys.stderr)
        return 2
    try:
        findings = lint(tree, files, selected)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for f in findings:
        print(f"{f.path}:{f.line}: [{f.check}] {f.message}")
    if findings:
        print(f"{len(findings)} finding(s) in {len(tree.sources)} "
              "file(s)", file=sys.stderr)
        return 1
    print(f"helix-lint: {len(tree.sources)} file(s) clean",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
