#!/usr/bin/env python3
"""helix-analyze: cross-artifact schema coherence.

helix-lint (tools/helix_lint.py) enforces line-local coding rules.
This tool covers what a line-local linter cannot see: facts that live
in several artifacts at once — the SimMetrics struct vs. the schema
tables in src/exp/schema.cpp vs. the two emitters vs. the simulator
fingerprint (tests/sim_fingerprint.h); the core::specParams()
registry vs. the docs; the bench/ binaries vs. the README bench
table — must never drift.

Checks (``--list-checks`` for the one-liners):

  metrics-schema         SimMetrics / schema table / emitters /
                         simulator fingerprint drift
  param-docs             spec registry key undocumented, or doc
                         example using an undeclared key
  bench-docs             bench binary without a README bench-table row
  suppression            malformed allow() directive

Findings print as ``path:line: [check-id] message`` (same contract as
helix-lint). A finding is suppressed only by a comment on the same
line or the line above::

    // helix-analyze: allow(<check-id>) <justification>

Markdown artifacts may use ``<!-- helix-analyze: allow(...) ... -->``.
The justification is mandatory. A fixture file may carry
``// helix-analyze: treat-as(<path>)`` in its first lines to opt into
the path-scoped rules of ``<path>`` (used by tests/data/analyze/).

Exit codes: 0 clean, 1 findings, 2 usage/IO error.

Usage:
  tools/helix_analyze.py --all
  tools/helix_analyze.py --compile-commands build/compile_commands.json
  tools/helix_analyze.py [--checks id,id] file.cpp ...
"""

import argparse
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import helix_lint
from helix_lint import Finding, REPO_ROOT

# ---------------------------------------------------------------------------
# Check registry
# ---------------------------------------------------------------------------

CHECKS = {
    "metrics-schema": (
        "drift between SimMetrics, the schema tables "
        "(src/exp/schema.cpp), the CSV/JSON emitters, and the "
        "simulator fingerprint"
    ),
    "param-docs": (
        "core::specParams() key missing from the docs, or a doc "
        "example using an undeclared key"
    ),
    "bench-docs": (
        "bench binary without a row in the README bench table"
    ),
    "suppression": (
        "malformed allow() directive (unknown check-id or missing "
        "justification)"
    ),
}

DIRECTIVE_RE = re.compile(
    r"(?://|<!--)\s*helix-analyze:\s*(allow|treat-as)\(([^)]*)\)"
    r"\s*(.*?)\s*(?:-->\s*)?$"
)

# ---------------------------------------------------------------------------
# Source model (extends the helix-lint stripped-source model with the
# helix-analyze directive grammar)
# ---------------------------------------------------------------------------


class SourceFile(helix_lint.SourceFile):
    def _directives(self):
        for lineno, line in enumerate(self.raw_lines, start=1):
            m = DIRECTIVE_RE.search(line)
            if not m:
                continue
            kind, arg, tail = m.group(1), m.group(2).strip(), m.group(3)
            if kind == "treat-as":
                if lineno <= 5 and arg:
                    self.scope = arg
                continue
            justification = tail.strip()
            if arg not in CHECKS:
                self.directive_findings.append(Finding(
                    self.rel, lineno, "suppression",
                    f"allow() names unknown check '{arg}'"))
                continue
            if not justification:
                self.directive_findings.append(Finding(
                    self.rel, lineno, "suppression",
                    f"allow({arg}) requires a justification string"))
                continue
            self.allows[lineno] = self.allows.get(lineno, set())
            self.allows[lineno].add(arg)


_SOURCE_CACHE = {}


def load_source(path: Path):
    key = str(path.resolve())
    if key not in _SOURCE_CACHE:
        try:
            rel = path.resolve().relative_to(REPO_ROOT).as_posix()
        except ValueError:
            rel = path.as_posix()
        _SOURCE_CACHE[key] = SourceFile(path, rel)
    return _SOURCE_CACHE[key]


# ---------------------------------------------------------------------------
# Approximate C++ structure parser
#
# A statement-buffer + brace-depth scanner over the stripped lines.
# It recovers classes with their data members and the line span of
# every function definition — enough for the metrics-schema check.
# ---------------------------------------------------------------------------

ACCESS_RE = re.compile(r"^\s*(public|protected|private)\s*:\s*")
NAME_BEFORE_PAREN_RE = re.compile(
    r"((?:~?[A-Za-z_]\w*\s*::\s*)*~?[A-Za-z_]\w*)$")
OPERATOR_RE = re.compile(r"\boperator\b[^()]*$")
CLASS_HEAD_RE = re.compile(r"\b(?:class|struct|union)\s+([A-Za-z_]\w*)")

# Words that precede a '(' without naming a function.
NOT_FUNCTION_NAMES = frozenset({
    "if", "for", "while", "switch", "catch", "return", "sizeof",
    "alignof", "decltype", "noexcept", "static_assert", "assert",
    "new", "delete", "throw", "case", "defined", "do", "else",
    "int", "long", "double", "float", "bool", "char", "short",
    "unsigned", "signed", "void", "auto", "size_t", "uint8_t",
    "int8_t", "uint16_t", "int16_t", "uint32_t", "int32_t",
    "uint64_t", "int64_t", "const", "static", "inline", "virtual",
    "explicit", "constexpr",
})


class FunctionDef:
    __slots__ = ("name", "sig_line", "end")

    def __init__(self, name, sig_line):
        self.name = name
        self.sig_line = sig_line
        self.end = sig_line


class FieldDecl:
    __slots__ = ("name", "line")

    def __init__(self, name, line):
        self.name = name
        self.line = line


class ClassInfo:
    __slots__ = ("name", "fields")

    def __init__(self, name):
        self.name = name
        self.fields = []


class FileModel:
    __slots__ = ("functions", "classes")

    def __init__(self):
        self.functions = []
        self.classes = []  # ClassInfo, one per class *block*


def _func_name(text):
    """Name of the function a declarator introduces, or None."""
    depth = 0
    idx = -1
    for i, ch in enumerate(text):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth = max(0, depth - 1)
        elif ch == "(" and depth == 0:
            idx = i
            break
    if idx < 0:
        return None
    before = text[:idx].rstrip()
    if OPERATOR_RE.search(before):
        return "operator"
    m = NAME_BEFORE_PAREN_RE.search(before)
    if not m:
        return None
    name = re.sub(r"\s+", "", m.group(1))
    last = name.split("::")[-1].lstrip("~")
    if not last or last in NOT_FUNCTION_NAMES:
        return None
    return name


def parse_file(src):
    """Build the structural model of one stripped translation unit."""
    model = FileModel()
    stack = []  # {"kind": ...}; kinds: namespace/class/function/opaque
    buf = []
    buf_line = None

    def current_class():
        for blk in reversed(stack):
            if blk["kind"] == "class":
                return blk["info"]
            if blk["kind"] != "namespace":
                return None
        return None

    def inside_opaque():
        return any(b["kind"] in ("function", "opaque") for b in stack)

    def strip_labels(text):
        while True:
            m = ACCESS_RE.match(text)
            if not m:
                return text
            text = text[m.end():]

    def handle_decl(text, start_line):
        info = current_class()
        if info is None or inside_opaque():
            return
        t = strip_labels(text).strip()
        first = re.match(r"[A-Za-z_]\w*", t)
        fw = first.group(0) if first else ""
        if fw in ("using", "friend", "typedef", "static_assert",
                  "template", "namespace", "enum", "extern", "class",
                  "struct"):
            return
        if "(" in t:
            return  # a member function declaration
        ids = re.findall(r"[A-Za-z_]\w*", t.split("=", 1)[0])
        if ids:
            info.fields.append(FieldDecl(ids[-1], start_line))

    def classify_open(text, start_line):
        """Handle '{' in a transparent context."""
        t = strip_labels(text).strip()
        first = re.match(r"[A-Za-z_]\w*", t)
        fw = first.group(0) if first else ""
        if fw in ("namespace", "extern") or \
                t.startswith("inline namespace"):
            stack.append({"kind": "namespace"})
            return
        if fw in ("class", "struct", "union"):
            m = CLASS_HEAD_RE.search(t)
            if m:
                info = ClassInfo(m.group(1))
                model.classes.append(info)
                stack.append({"kind": "class", "info": info})
            else:
                stack.append({"kind": "opaque"})
            return
        name = _func_name(t) if fw != "enum" else None
        if name and name != "operator":
            stack.append({"kind": "function",
                          "fn": FunctionDef(name.split("::")[-1],
                                            start_line)})
            return
        stack.append({"kind": "opaque"})

    for lineno, line in enumerate(src.stripped_lines, start=1):
        if line.lstrip().startswith("#"):
            continue
        for ch in line:
            if ch == "{":
                if inside_opaque():
                    stack.append({"kind": "opaque"})
                else:
                    classify_open("".join(buf), buf_line or lineno)
                buf = []
                buf_line = None
            elif ch == "}":
                if stack:
                    blk = stack.pop()
                    if blk["kind"] == "function":
                        blk["fn"].end = lineno
                        model.functions.append(blk["fn"])
                buf = []
                buf_line = None
            elif ch == ";":
                handle_decl("".join(buf), buf_line or lineno)
                buf = []
                buf_line = None
            else:
                if buf_line is None and not ch.isspace():
                    buf_line = lineno
                buf.append(ch)
        if buf or buf_line is not None:
            buf.append(" ")
    # close any dangling function at EOF
    while stack:
        blk = stack.pop()
        if blk["kind"] == "function":
            blk["fn"].end = len(src.stripped_lines)
            model.functions.append(blk["fn"])
    return model


# ---------------------------------------------------------------------------
# metrics-schema: SimMetrics <-> schema tables <-> emitters <->
# simulator fingerprint
# ---------------------------------------------------------------------------

SCHEMA_TABLE_RE = re.compile(
    r"\b(MetricColumnSpec|StringColumnSpec|CompositeColumnSpec|"
    r"InternalMetricSpec)\b[^=;]*\[\]\s*=\s*\{")
SCHEMA_ROW_RE = re.compile(r"\{\s*((?:\"(?:[^\"\\]|\\.)*\"\s*,?\s*)+)")
SCHEMA_STR_RE = re.compile(r"\"((?:[^\"\\]|\\.)*)\"")

# strings per row, by spec type
SCHEMA_ARITY = {
    "MetricColumnSpec": 3,     # column, field, fingerprint (+ lambda)
    "StringColumnSpec": 2,     # column, field (+ lambda)
    "CompositeColumnSpec": 4,  # csvColumn, jsonKey, field, fingerprint
    "InternalMetricSpec": 2,   # field, fingerprint
}


class SchemaRow:
    __slots__ = ("kind", "strings", "line")

    def __init__(self, kind, strings, line):
        self.kind = kind
        self.strings = strings
        self.line = line


def parse_schema_tables(src):
    """Extract the literal rows of every schema table, with lines."""
    rows = []
    findings = []
    text = "\n".join(src.raw_lines)
    for tm in SCHEMA_TABLE_RE.finditer(text):
        kind = tm.group(1)
        start = tm.end()
        # table region: up to the next top-level "};" line
        end = text.find("\n};", start)
        region = text[start:end if end >= 0 else len(text)]
        base_line = text.count("\n", 0, start) + 1
        for rm in SCHEMA_ROW_RE.finditer(region):
            line = base_line + region.count("\n", 0, rm.start())
            strings = SCHEMA_STR_RE.findall(rm.group(1))
            if len(strings) != SCHEMA_ARITY[kind]:
                findings.append(Finding(
                    src.rel, line, "metrics-schema",
                    f"malformed {kind} row: expected "
                    f"{SCHEMA_ARITY[kind]} leading string literals, "
                    f"found {len(strings)}"))
                continue
            rows.append(SchemaRow(kind, strings, line))
    return rows, findings


def check_metrics_schema(paths, selected_struct):
    findings = []
    metrics_src = load_source(paths["metrics_header"])
    schema_src = load_source(paths["schema"])
    emitter_srcs = [load_source(p) for p in paths["emitters"]]
    fp_src = load_source(paths["fingerprint"])

    # 1. struct fields
    fields = {}
    for info in parse_file(metrics_src).classes:
        if info.name == selected_struct:
            for field in info.fields:
                fields.setdefault(field.name, field.line)
    if not fields:
        findings.append(Finding(
            metrics_src.rel, 1, "metrics-schema",
            f"struct {selected_struct} not found"))
        return findings

    # 2. schema rows
    rows, row_findings = parse_schema_tables(schema_src)
    findings.extend(row_findings)

    def row_field(row):
        if row.kind == "CompositeColumnSpec":
            return row.strings[2]
        if row.kind == "InternalMetricSpec":
            return row.strings[0]
        return row.strings[1]

    def row_fingerprint(row):
        if row.kind == "StringColumnSpec":
            return None
        if row.kind == "CompositeColumnSpec":
            return row.strings[3]
        if row.kind == "InternalMetricSpec":
            return row.strings[1]
        return row.strings[2]

    # 3. emitter bodies
    bodies = {}
    for esrc in emitter_srcs:
        for fn in parse_file(esrc).functions:
            if fn.name in ("resultsToJson", "resultsToCsv"):
                raw = "\n".join(
                    esrc.raw_lines[fn.sig_line - 1:fn.end])
                bodies.setdefault(fn.name, (esrc, fn.sig_line, raw))
    for emitter in ("resultsToJson", "resultsToCsv"):
        if emitter not in bodies:
            findings.append(Finding(
                emitter_srcs[0].rel, 1, "metrics-schema",
                f"emitter '{emitter}' not found in "
                f"{', '.join(e.rel for e in emitter_srcs)}"))
    if len(bodies) < 2:
        return findings
    fp_text = "\n".join(fp_src.raw_lines)

    def emitted(body_raw, word, table_symbol):
        if re.search(rf"\b{re.escape(word)}\b", body_raw):
            return True
        return re.search(rf"\b{table_symbol}\b", body_raw) is not None

    prefix = "metrics."
    covered = set()
    for row in rows:
        f = row_field(row)
        if f.startswith(prefix):
            covered.add(f[len(prefix):].split(".")[0])

    # struct -> schema
    for fname, line in sorted(fields.items(),
                              key=lambda kv: kv[1]):
        if fname not in covered:
            findings.append(Finding(
                metrics_src.rel, line, "metrics-schema",
                f"{selected_struct} field '{fname}' has no row in any "
                f"schema table ({schema_src.rel}); add a column, "
                "composite, or internal-metric row"))

    json_raw = bodies["resultsToJson"][2]
    csv_raw = bodies["resultsToCsv"][2]
    for row in rows:
        f = row_field(row)
        # schema -> struct
        if f.startswith(prefix):
            member = f[len(prefix):].split(".")[0]
            if member not in fields:
                findings.append(Finding(
                    schema_src.rel, row.line, "metrics-schema",
                    f"schema row names '{f}' but {selected_struct} "
                    f"has no field '{member}'"))
        # schema -> fingerprint
        fp = row_fingerprint(row)
        if fp is not None:
            if not fp:
                if f.startswith(prefix):
                    findings.append(Finding(
                        schema_src.rel, row.line, "metrics-schema",
                        f"schema row for '{f}' has an empty "
                        "fingerprint token; every SimMetrics-backed "
                        "row must be covered by the simulator "
                        "fingerprint"))
            elif fp not in fp_text:
                findings.append(Finding(
                    schema_src.rel, row.line, "metrics-schema",
                    f"fingerprint token '{fp}' for '{f}' does not "
                    f"appear in {fp_src.rel}"))
        # schema -> emitters
        if row.kind in ("MetricColumnSpec", "StringColumnSpec"):
            symbol = ("metricColumns" if row.kind == "MetricColumnSpec"
                      else "stringColumns")
            column = row.strings[0]
            for name, raw in (("resultsToJson", json_raw),
                              ("resultsToCsv", csv_raw)):
                if not emitted(raw, column, symbol):
                    findings.append(Finding(
                        schema_src.rel, row.line, "metrics-schema",
                        f"column '{column}' is not emitted by "
                        f"{name}"))
        elif row.kind == "CompositeColumnSpec":
            csv_col, json_key = row.strings[0], row.strings[1]
            if not re.search(rf"\b{re.escape(csv_col)}\b", csv_raw):
                findings.append(Finding(
                    schema_src.rel, row.line, "metrics-schema",
                    f"composite CSV column '{csv_col}' is not emitted "
                    "by resultsToCsv"))
            if not re.search(rf"\b{re.escape(json_key)}\b", json_raw):
                findings.append(Finding(
                    schema_src.rel, row.line, "metrics-schema",
                    f"composite JSON key '{json_key}' is not emitted "
                    "by resultsToJson"))
    return findings


# ---------------------------------------------------------------------------
# param-docs: core::specParams() registry <-> docs
# ---------------------------------------------------------------------------

PARAM_DECL_RE = re.compile(r"\bparameter\(\s*\"([^\"]+)\"")
FENCE_RE = re.compile(r"^\s*```")
KV_RE = re.compile(r"(?<![\w.:=<-])([A-Za-z][A-Za-z0-9-]*)=")

# Keys whose arguments are free-form name=value pairs (tenant names),
# exempt from the undeclared-key scan on that line.
FREEFORM_KV_KEYS = {"mix"}


def check_param_docs(paths):
    findings = []
    params_src = load_source(paths["params"])
    doc_srcs = [load_source(p) for p in paths["docs"]]

    declared = {}
    for lineno, line in enumerate(params_src.raw_lines, start=1):
        for m in PARAM_DECL_RE.finditer(line):
            declared.setdefault(m.group(1), lineno)
    if not declared:
        findings.append(Finding(
            params_src.rel, 1, "param-docs",
            "no parameter(...) declarations found"))
        return findings

    doc_texts = [(d, "\n".join(d.raw_lines)) for d in doc_srcs]
    for key, lineno in sorted(declared.items(),
                              key=lambda kv: (kv[1], kv[0])):
        pat = re.compile(rf"(?<![\w-]){re.escape(key)}(?![\w-])")
        if not any(pat.search(text) for _d, text in doc_texts):
            names = ", ".join(d.rel for d in doc_srcs)
            findings.append(Finding(
                params_src.rel, lineno, "param-docs",
                f"spec key '{key}' is not documented in {names}"))

    for dsrc in doc_srcs:
        # mode: None = outside fences, "head" = fence opened and the
        # first content line decides, "spec" = validating an
        # `experiment v1` example, "ignore" = some other fenced block
        mode = None
        for lineno, line in enumerate(dsrc.raw_lines, start=1):
            if FENCE_RE.match(line):
                mode = None if mode is not None else "head"
                continue
            if mode is None or mode == "ignore":
                continue
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if mode == "head":
                mode = ("spec" if stripped.startswith("experiment v1")
                        else "ignore")
                continue
            tokens = stripped.split()
            head = tokens[0]
            if head not in declared:
                findings.append(Finding(
                    dsrc.rel, lineno, "param-docs",
                    f"doc example uses undeclared spec key '{head}'"))
                continue
            if head in FREEFORM_KV_KEYS:
                continue
            for m in KV_RE.finditer(stripped):
                k = m.group(1)
                if k not in declared:
                    findings.append(Finding(
                        dsrc.rel, lineno, "param-docs",
                        f"doc example uses undeclared spec key "
                        f"'{k}'"))
    return findings


# ---------------------------------------------------------------------------
# bench-docs: bench binaries <-> README bench table
# ---------------------------------------------------------------------------


def check_bench_docs(paths):
    findings = []
    bench_dir = paths["bench_dir"]
    readme_src = load_source(paths["readme"])
    readme_text = "\n".join(readme_src.raw_lines)
    if not bench_dir.is_dir():
        return findings
    for cpp in sorted(bench_dir.glob("*.cpp")):
        if cpp.stem.startswith("bench_common"):
            continue
        binary = f"bench_{cpp.stem}"
        if not re.search(rf"\b{re.escape(binary)}\b", readme_text):
            rel = cpp.resolve()
            try:
                rel = rel.relative_to(REPO_ROOT).as_posix()
            except ValueError:
                rel = cpp.as_posix()
            findings.append(Finding(
                rel, 1, "bench-docs",
                f"bench binary '{binary}' has no row in "
                f"{readme_src.rel} (bench table)"))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def analyze(files, selected, paths, metrics_struct):
    findings = []
    sources = {}

    def add(finding):
        src = sources.get(finding.path)
        if src is not None and src.allowed(finding.line,
                                           finding.check):
            return
        findings.append(finding)

    for path in files:
        src = load_source(path)
        sources[src.rel] = src

    artifact_srcs = []
    if "metrics-schema" in selected:
        artifact_srcs += [paths["metrics_header"], paths["schema"],
                          paths["fingerprint"]] + paths["emitters"]
    if "param-docs" in selected:
        artifact_srcs += [paths["params"]] + paths["docs"]
    if "bench-docs" in selected:
        artifact_srcs.append(paths["readme"])
        if paths["bench_dir"].is_dir():
            # load the bench sources so allow() directives in them
            # can suppress bench-docs findings
            artifact_srcs.extend(sorted(
                paths["bench_dir"].glob("*.cpp")))
    for path in artifact_srcs:
        if not path.exists():
            print(f"error: {path}: file not found", file=sys.stderr)
            return None
        src = load_source(path)
        sources.setdefault(src.rel, src)

    if "suppression" in selected:
        for src in sources.values():
            findings.extend(src.directive_findings)

    if "metrics-schema" in selected:
        for f in check_metrics_schema(paths, metrics_struct):
            add(f)
    if "param-docs" in selected:
        for f in check_param_docs(paths):
            add(f)
    if "bench-docs" in selected:
        for f in check_bench_docs(paths):
            add(f)

    # drop exact duplicates (e.g. one line with two identical refs)
    seen = set()
    unique = []
    for f in findings:
        key = (f.path, f.line, f.check, f.message)
        if key in seen:
            continue
        seen.add(key)
        unique.append(f)
    return unique, len(sources)


def main(argv):
    parser = argparse.ArgumentParser(
        prog="helix_analyze.py",
        description="Cross-artifact schema checks for the helix "
                    "tree.")
    parser.add_argument("files", nargs="*", help="files to analyze")
    parser.add_argument("--all", action="store_true",
                        help="analyze src/, tests/, bench/")
    parser.add_argument("--compile-commands", metavar="JSON",
                        help="derive the file list from a "
                             "compile_commands.json")
    parser.add_argument("--checks", metavar="ID[,ID...]",
                        help="run only the named checks")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the check registry and exit")
    parser.add_argument("--metrics-header",
                        default="src/sim/simulator.h",
                        help="header declaring the metrics struct")
    parser.add_argument("--metrics-struct", default="SimMetrics",
                        help="name of the metrics struct")
    parser.add_argument("--schema", default="src/exp/schema.cpp",
                        help="schema table translation unit")
    parser.add_argument("--emitters", default="src/exp/experiment.cpp",
                        help="comma-separated emitter files")
    parser.add_argument("--fingerprint",
                        default="tests/sim_fingerprint.h",
                        help="simulator fingerprint source")
    parser.add_argument("--params", default="src/core/params.cpp",
                        help="spec parameter registry source")
    parser.add_argument("--docs",
                        default="docs/FILE_FORMATS.md,"
                                "docs/SCENARIOS.md",
                        help="comma-separated spec documentation files")
    parser.add_argument("--readme", default="README.md",
                        help="README carrying the bench table")
    parser.add_argument("--bench-dir", default="bench",
                        help="directory of bench sources")
    args = parser.parse_args(argv)

    if args.list_checks:
        for check_id in sorted(CHECKS):
            print(f"{check_id}: {CHECKS[check_id]}")
        return 0

    selected = set(CHECKS)
    if args.checks:
        selected = set(args.checks.split(","))
        unknown = selected - set(CHECKS)
        if unknown:
            print(f"error: unknown check(s): "
                  f"{', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        selected.add("suppression")

    files = [Path(f) for f in args.files]
    if args.all:
        files.extend(helix_lint.discover_all())
    if args.compile_commands:
        files.extend(helix_lint.discover_compile_commands(
            Path(args.compile_commands)))
    if not files and not args.checks:
        print("error: no input files (use --all, --compile-commands, "
              "or list files)", file=sys.stderr)
        return 2

    def repo_path(p):
        path = Path(p)
        return path if path.is_absolute() else REPO_ROOT / path

    paths = {
        "metrics_header": repo_path(args.metrics_header),
        "schema": repo_path(args.schema),
        "emitters": [repo_path(p)
                     for p in args.emitters.split(",") if p],
        "fingerprint": repo_path(args.fingerprint),
        "params": repo_path(args.params),
        "docs": [repo_path(p) for p in args.docs.split(",") if p],
        "readme": repo_path(args.readme),
        "bench_dir": repo_path(args.bench_dir),
    }

    seen = set()
    unique_files = []
    for path in files:
        if str(path) in seen:
            continue
        seen.add(str(path))
        if not path.exists():
            print(f"error: {path}: file not found", file=sys.stderr)
            return 2
        unique_files.append(path)

    result = analyze(unique_files, selected, paths,
                     args.metrics_struct)
    if result is None:
        return 2
    findings, nfiles = result
    findings.sort(key=lambda f: (f.path, f.line, f.check))
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s) in {nfiles} file(s)",
              file=sys.stderr)
        return 1
    print(f"helix-analyze: {nfiles} file(s) clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
