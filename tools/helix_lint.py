#!/usr/bin/env python3
"""helix-lint: project-specific determinism and API-hardening checks.

The repo's load-bearing guarantee is byte-identical metrics and
emitter output across thread counts and spec-vs-direct engine paths.
The golden tests enforce that guarantee
dynamically; this linter enforces the coding rules that keep it true
statically, at CI time (see docs/ARCHITECTURE.md "Determinism
invariants" and docs/DEVELOPMENT.md for the workflow).

Checks (``--list-checks`` for the one-liners):

  raw-random             no rand()/std::random_device/mt19937/time()/
                         wall-clock outside src/util/random.* and the
                         whitelisted budget-timing files
  unordered-iter         no iteration over std::unordered_{map,set}
                         in src/ or bench/ (materialize sorted first)
  hot-path-std-function  no std::function in src/sim/ (the tagged-
                         union Event regression class from PR 2)
  float-eq               no floating-point ==/!= outside tolerance
                         helpers
  param-registry         spec-parser key/tag comparisons must name
                         keys declared in core::specParams()
  self-include-first     a .cpp file's first include is its own header
  unused-include         no quoted project includes whose declarations
                         are never referenced
  suppression            allow() directives must name a known check
                         and carry a justification

Findings print as ``path:line: [check-id] message``. A finding is
suppressed only by a comment on the same line or the line above::

    // helix-lint: allow(<check-id>) <justification>

The justification string is mandatory; an empty one is itself a
finding. A fixture file may carry ``// helix-lint: treat-as(<path>)``
in its first lines to opt into the path-scoped rules of ``<path>``
(used by tests/data/lint/).

Exit codes: 0 clean, 1 findings, 2 usage/IO error.

Usage:
  tools/helix_lint.py --all
  tools/helix_lint.py --compile-commands build/compile_commands.json
  tools/helix_lint.py [--checks id,id] file.cpp ...
"""

import argparse
import json
import multiprocessing
import os
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# ---------------------------------------------------------------------------
# Check registry
# ---------------------------------------------------------------------------

CHECKS = {
    "raw-random": (
        "unseeded randomness or wall-clock reads outside the seeded "
        "RNG and whitelisted timing utilities"
    ),
    "unordered-iter": (
        "iteration over std::unordered_map/unordered_set in "
        "determinism-critical code (materialize sorted first)"
    ),
    "hot-path-std-function": (
        "std::function in the simulator hot path (use trivially-"
        "copyable tagged unions and reused batch storage)"
    ),
    "float-eq": (
        "floating-point ==/!= outside tolerance helpers"
    ),
    "param-registry": (
        "spec-parser comparison against a key not declared in the "
        "core::specParams() registry (src/core/params.cpp)"
    ),
    "self-include-first": (
        "a .cpp file must include its own header first"
    ),
    "unused-include": (
        "quoted project include whose declarations are never "
        "referenced"
    ),
    "suppression": (
        "malformed allow() directive (unknown check-id or missing "
        "justification)"
    ),
}

# Files implementing the seeded RNG: the only place raw generator
# primitives may live.
RNG_WHITELIST = {"src/util/random.h", "src/util/random.cpp"}

# Budget/wall-timing utilities: the only src/ files that may read
# std::chrono::steady_clock (planner search budgets, runner wall time).
# steady_clock feeds *reported* timings and budget cutoffs, never
# metric values, so these sites cannot break byte-identity; everything
# else in src/ must stay clock-free.
TIMING_WHITELIST = {
    "src/exp/experiment.cpp",
    "src/milp/branch_and_bound.cpp",
    "src/placement/helix_planner.cpp",
    "src/placement/partitioned_planner.cpp",
    "src/placement/portfolio.cpp",
}

# Path prefixes where the determinism-critical checks apply.
DETERMINISM_PREFIXES = ("src/", "bench/")
SIM_HOT_PATH_PREFIXES = ("src/sim/",)

DIRECTIVE_RE = re.compile(
    r"//\s*helix-lint:\s*(allow|treat-as)\(([^)]*)\)\s*(.*)$"
)

FLOAT_LITERAL_RE = re.compile(
    r"^[-+]?(\d+\.\d*([eE][-+]?\d+)?|\.\d+([eE][-+]?\d+)?"
    r"|\d+[eE][-+]?\d+)[fFlL]?$"
)


class Finding:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def render(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


# ---------------------------------------------------------------------------
# Source model: comment/string stripping + directives
# ---------------------------------------------------------------------------

class SourceFile:
    """One translation unit: raw lines, stripped lines, directives."""

    def __init__(self, path: Path, rel: str):
        self.path = path
        self.rel = rel  # repo-relative display/display+scoping path
        self.scope = rel  # path used for path-scoped rules
        text = path.read_text(encoding="utf-8", errors="replace")
        self.raw_lines = text.split("\n")
        self.stripped_lines = self._strip(self.raw_lines)
        self.code = "\n".join(self.stripped_lines)
        # lineno -> (check-id, justification)
        self.allows = {}
        self.directive_findings = []
        self._directives()

    @staticmethod
    def _strip(lines):
        """Blank out comments and string/char literal contents."""
        out = []
        in_block = False
        for line in lines:
            res = []
            i = 0
            n = len(line)
            while i < n:
                if in_block:
                    end = line.find("*/", i)
                    if end < 0:
                        i = n
                    else:
                        in_block = False
                        i = end + 2
                    continue
                ch = line[i]
                nxt = line[i + 1] if i + 1 < n else ""
                if ch == "/" and nxt == "/":
                    break
                if ch == "/" and nxt == "*":
                    in_block = True
                    i += 2
                    continue
                if ch == '"' or ch == "'":
                    quote = ch
                    res.append(quote)
                    i += 1
                    while i < n:
                        if line[i] == "\\":
                            i += 2
                            continue
                        if line[i] == quote:
                            break
                        i += 1
                    res.append(quote)
                    i += 1
                    continue
                res.append(ch)
                i += 1
            out.append("".join(res))
        return out

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

    def allowed(self, lineno, check):
        """Suppressed by an allow() on this line or the line above."""
        for ln in (lineno, lineno - 1):
            if check in self.allows.get(ln, set()):
                return True
        return False

    def in_scope(self, prefixes):
        return self.scope.startswith(prefixes)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

RAW_RANDOM_PATTERNS = [
    (re.compile(r"(?<![\w.:])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bmt19937(_64)?\b"), "std::mt19937"),
    (re.compile(r"\bdefault_random_engine\b"),
     "std::default_random_engine"),
    (re.compile(r"(?<![\w.:])time\s*\(\s*(0|NULL|nullptr)?\s*\)"),
     "time()"),
    (re.compile(r"\bstd::time\s*\("), "std::time()"),
    (re.compile(r"(?<![\w.:])clock\s*\(\s*\)"), "clock()"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday()"),
    (re.compile(r"\b(localtime|gmtime)\s*\("), "calendar time"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
]
STEADY_CLOCK_RE = re.compile(r"\bsteady_clock\b")


def check_raw_random(src: SourceFile):
    if src.scope in RNG_WHITELIST:
        return
    in_src = src.scope.startswith("src/")
    for lineno, line in enumerate(src.stripped_lines, start=1):
        for pattern, what in RAW_RANDOM_PATTERNS:
            if pattern.search(line):
                yield Finding(
                    src.rel, lineno, "raw-random",
                    f"{what} breaks run-to-run determinism; draw from "
                    "the seeded helix::Rng (src/util/random.h)")
        if in_src and src.scope not in TIMING_WHITELIST \
                and STEADY_CLOCK_RE.search(line):
            yield Finding(
                src.rel, lineno, "raw-random",
                "steady_clock outside the whitelisted timing "
                "utilities; metric values must not depend on wall "
                "time")


UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<")
UNORDERED_VAR_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*"
    r"(\w+)\s*[;({=\[]")
UNORDERED_ALIAS_RE = re.compile(
    r"\busing\s+(\w+)\s*=\s*[^;]*\bunordered_")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*?:\s*(?:\w+\.)*(\w+)\s*\)")
BEGIN_CALL_RE = re.compile(r"\b(\w+)\s*\.\s*c?(?:begin|end|rbegin)\s*\(")


def check_unordered_iter(src: SourceFile):
    if not src.in_scope(DETERMINISM_PREFIXES):
        return
    names = set()
    aliases = set()
    for line in src.stripped_lines:
        for m in UNORDERED_VAR_RE.finditer(line):
            names.add(m.group(1))
        for m in UNORDERED_ALIAS_RE.finditer(line):
            aliases.add(m.group(1))
    if aliases:
        alias_var = re.compile(
            r"\b(?:" + "|".join(sorted(aliases)) +
            r")\s*(?:<[^;]*>)?\s+(\w+)\s*[;({=\[]")
        for line in src.stripped_lines:
            for m in alias_var.finditer(line):
                names.add(m.group(1))
    if not names:
        return
    for lineno, line in enumerate(src.stripped_lines, start=1):
        hits = set()
        for m in RANGE_FOR_RE.finditer(line):
            if m.group(1) in names:
                hits.add(m.group(1))
        for m in BEGIN_CALL_RE.finditer(line):
            if m.group(1) in names:
                hits.add(m.group(1))
        for name in sorted(hits):
            yield Finding(
                src.rel, lineno, "unordered-iter",
                f"iteration over unordered container '{name}' has "
                "implementation-defined order; materialize into a "
                "sorted vector first")


STD_FUNCTION_RE = re.compile(r"\bstd::function\s*<")


def check_hot_path_std_function(src: SourceFile):
    if not src.in_scope(SIM_HOT_PATH_PREFIXES):
        return
    for lineno, line in enumerate(src.stripped_lines, start=1):
        if STD_FUNCTION_RE.search(line):
            yield Finding(
                src.rel, lineno, "hot-path-std-function",
                "std::function in the simulator hot path allocates "
                "per event; use the trivially-copyable tagged-union "
                "Event / reused batch storage (PR 2 regression class)")


FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+(\w+)")
COMPARE_RE = re.compile(
    r"([\w.\->\[\]]+(?:\(\))?)\s*(==|!=)\s*([-+]?[\w.\->\[\]]+(?:\(\))?)")


def _terminal_identifier(operand):
    operand = operand.rstrip("()")
    for sep in ("->", "."):
        if sep in operand:
            operand = operand.rsplit(sep, 1)[1]
    operand = operand.lstrip("+-")
    return operand


def check_float_eq(src: SourceFile):
    if not src.in_scope(DETERMINISM_PREFIXES):
        return
    float_names = set()
    for line in src.stripped_lines:
        for m in FLOAT_DECL_RE.finditer(line):
            float_names.add(m.group(1))
    for lineno, line in enumerate(src.stripped_lines, start=1):
        if re.match(r"\s*#", line):
            continue  # preprocessor
        for m in COMPARE_RE.finditer(line):
            lhs, op, rhs = m.group(1), m.group(2), m.group(3)
            floaty = False
            for operand in (lhs, rhs):
                stripped = operand.lstrip("+-")
                if FLOAT_LITERAL_RE.match(stripped):
                    floaty = True
                if _terminal_identifier(operand) in float_names:
                    floaty = True
            if floaty:
                yield Finding(
                    src.rel, lineno, "float-eq",
                    f"floating-point '{op}' compares exact bit "
                    "patterns; use a tolerance helper or justify "
                    "with an allow()")


# The experiment-spec parser surface: every knob these files compare a
# directive/option token against must come from core::specParams(), so
# new knobs cannot bypass the registry's range checks, usage strings,
# and the pinned "(known: ...)" error lists.
PARAM_REGISTRY_PREFIXES = ("src/io/spec", "src/exp/spec")
PARAM_KEY_VAR_NAMES = {"key", "tag"}
# `key == "warmup"` / `"warmup" == key` (and !=), on raw lines: the
# stripped view blanks string-literal contents.
PARAM_KEY_CMP_RE = re.compile(
    r'([A-Za-z_][\w.>()-]*)\s*(?:==|!=)\s*"([a-z][a-z0-9-]*)"'
    r'|"([a-z][a-z0-9-]*)"\s*(?:==|!=)\s*([A-Za-z_][\w.>()-]*)')
PARAM_DECL_RE = re.compile(r'\bparameter\(\s*"([^"]+)"')

_DECLARED_KEYS_CACHE = None


def _declared_spec_keys():
    """Keys declared in core::specParams()."""
    global _DECLARED_KEYS_CACHE
    if _DECLARED_KEYS_CACHE is None:
        try:
            text = (REPO_ROOT / "src" / "core" / "params.cpp").read_text(
                encoding="utf-8", errors="replace")
        except OSError:
            text = ""
        _DECLARED_KEYS_CACHE = set(PARAM_DECL_RE.findall(text))
    return _DECLARED_KEYS_CACHE


def check_param_registry(src: SourceFile):
    if not src.in_scope(PARAM_REGISTRY_PREFIXES):
        return
    declared = _declared_spec_keys()
    if not declared:
        return  # registry source missing; nothing to compare against
    for lineno, line in enumerate(src.raw_lines, start=1):
        code = line.split("//", 1)[0]
        for m in PARAM_KEY_CMP_RE.finditer(code):
            var = m.group(1) or m.group(4)
            literal = m.group(2) or m.group(3)
            if _terminal_identifier(var) not in PARAM_KEY_VAR_NAMES:
                continue
            if literal in declared:
                continue
            yield Finding(
                src.rel, lineno, "param-registry",
                f"spec key '{literal}' is parsed ad-hoc; declare it "
                "in core::specParams() (src/core/params.cpp) so its "
                "range, usage, and the pinned known-key lists stay "
                "accurate")


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+([<"])([^">]+)[">]')

# Directories whose headers are included relative to themselves.
INCLUDE_ROOTS = ("src", "bench")


def _resolve_include(target):
    for root in INCLUDE_ROOTS:
        candidate = REPO_ROOT / root / target
        if candidate.exists():
            return candidate, f"{root}/{target}"
    candidate = REPO_ROOT / target
    if candidate.exists():
        return candidate, target
    return None, None


def _expected_self_include(scope):
    """Project-relative self-header include text for a .cpp, if any."""
    path = Path(scope)
    if path.suffix != ".cpp":
        return None
    header = path.with_suffix(".h")
    if not (REPO_ROOT / header).exists():
        return None
    parts = header.parts
    if parts and parts[0] in INCLUDE_ROOTS:
        return str(Path(*parts[1:]))
    return str(header)


def check_self_include_first(src: SourceFile):
    expected = _expected_self_include(src.scope)
    if expected is None:
        return
    # Include targets live inside string quotes, so match the raw
    # lines (the stripped view blanks literal contents).
    for lineno, line in enumerate(src.raw_lines, start=1):
        m = INCLUDE_RE.match(line)
        if not m:
            continue
        if m.group(1) == '"' and m.group(2) == expected:
            return
        yield Finding(
            src.rel, lineno, "self-include-first",
            f'first include must be the file\'s own header '
            f'"{expected}" so the header is proven self-contained')
        return


_HEADER_SYMBOLS_CACHE = {}

SYMBOL_PATTERNS = [
    re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)"),
    re.compile(r"\benum\s+(?:class\s+|struct\s+)?([A-Za-z_]\w*)"),
    re.compile(r"\busing\s+([A-Za-z_]\w*)\s*="),
    re.compile(r"\btypedef\s+[^;]*?\b(\w+)\s*;"),
    re.compile(r"#\s*define\s+([A-Za-z_]\w*)"),
    re.compile(r"\b(k[A-Z]\w*)\b"),
    re.compile(r"^[\w:<>,&*\s]+?\b([A-Za-z_]\w*)\s*\(", re.MULTILINE),
]


def _header_symbols(path: Path):
    key = str(path)
    if key in _HEADER_SYMBOLS_CACHE:
        return _HEADER_SYMBOLS_CACHE[key]
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        _HEADER_SYMBOLS_CACHE[key] = set()
        return set()
    stripped = "\n".join(SourceFile._strip(text.split("\n")))
    # [[nodiscard]] etc. would hide declarations from the line-anchored
    # free-function pattern.
    stripped = re.sub(r"\[\[[^\]]*\]\]\s*", "", stripped)
    symbols = set()
    for pattern in SYMBOL_PATTERNS:
        symbols.update(pattern.findall(stripped))
    symbols.discard("")
    _HEADER_SYMBOLS_CACHE[key] = symbols
    return symbols


def check_unused_include(src: SourceFile):
    expected_self = _expected_self_include(src.scope)
    include_lines = []
    for lineno, line in enumerate(src.raw_lines, start=1):
        m = INCLUDE_RE.match(line)
        if m and m.group(1) == '"':
            include_lines.append((lineno, m.group(2)))
    if not include_lines:
        return
    body_words = set(re.findall(r"[A-Za-z_]\w*", src.code))
    for lineno, target in include_lines:
        if target == expected_self:
            continue
        resolved, _ = _resolve_include(target)
        if resolved is None:
            continue  # not a project header we can inspect
        symbols = _header_symbols(resolved)
        if symbols and not (symbols & body_words):
            yield Finding(
                src.rel, lineno, "unused-include",
                f'"{target}" is included but none of its declarations '
                "are referenced; drop it or include what you use")


CHECK_FUNCTIONS = {
    "raw-random": check_raw_random,
    "unordered-iter": check_unordered_iter,
    "hot-path-std-function": check_hot_path_std_function,
    "float-eq": check_float_eq,
    "param-registry": check_param_registry,
    "self-include-first": check_self_include_first,
    "unused-include": check_unused_include,
}


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

SOURCE_SUFFIXES = {".cpp", ".h", ".hpp", ".cc"}
LINT_DIRS = ("src", "tests", "bench")
EXCLUDE_PREFIXES = ("tests/data/",)


def discover_all():
    files = []
    for top in LINT_DIRS:
        root = REPO_ROOT / top
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            rel = path.relative_to(REPO_ROOT).as_posix()
            if rel.startswith(EXCLUDE_PREFIXES):
                continue
            files.append(path)
    return files


def discover_compile_commands(db_path: Path):
    try:
        entries = json.loads(db_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read {db_path}: {exc}")
    files = set()
    for entry in entries:
        path = Path(entry.get("file", ""))
        if not path.is_absolute():
            path = Path(entry.get("directory", ".")) / path
        try:
            rel = path.resolve().relative_to(REPO_ROOT).as_posix()
        except ValueError:
            continue  # outside the repo (e.g. _deps)
        if rel.startswith("build") or rel.startswith(EXCLUDE_PREFIXES):
            continue
        if path.suffix in SOURCE_SUFFIXES and path.exists():
            files.add(path.resolve())
    # The database only lists translation units; fold in the headers.
    for top in ("src", "bench"):
        root = REPO_ROOT / top
        if root.is_dir():
            for path in root.rglob("*.h"):
                files.add(path)
    return sorted(files)


# Memoized source models: scanning a file twice (the fixture driver,
# or helix_analyze.py importing this module) must not re-strip it.
_SOURCE_CACHE = {}


def get_source(path: Path, rel: str) -> SourceFile:
    key = str(path)
    src = _SOURCE_CACHE.get(key)
    if src is None:
        src = SourceFile(path, rel)
        _SOURCE_CACHE[key] = src
    return src


def lint_file(path: Path, selected):
    try:
        rel = path.resolve().relative_to(REPO_ROOT).as_posix()
    except ValueError:
        rel = path.as_posix()
    src = get_source(path, rel)
    findings = []
    if "suppression" in selected:
        findings.extend(src.directive_findings)
    for check_id, fn in CHECK_FUNCTIONS.items():
        if check_id not in selected:
            continue
        for finding in fn(src):
            if not src.allowed(finding.line, finding.check):
                findings.append(finding)
    return findings


def _lint_worker(args):
    """Pool worker: lint one file (Finding objects are picklable)."""
    path_str, selected = args
    return lint_file(Path(path_str), selected)


def default_jobs():
    return max(1, min(os.cpu_count() or 1, 8))


def main(argv):
    parser = argparse.ArgumentParser(
        prog="helix_lint.py",
        description="Determinism/API lint for the helix tree.")
    parser.add_argument("files", nargs="*", help="files to lint")
    parser.add_argument("--jobs", type=int, metavar="N",
                        default=default_jobs(),
                        help="lint N files in parallel (default: "
                             "min(cpu count, 8); 1 = serial)")
    parser.add_argument("--all", action="store_true",
                        help="lint src/, tests/, bench/")
    parser.add_argument("--compile-commands", metavar="JSON",
                        help="derive the file list from a "
                             "compile_commands.json")
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
        selected = set(args.checks.split(","))
        unknown = selected - set(CHECKS)
        if unknown:
            print(f"error: unknown check(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
        selected.add("suppression")

    files = [Path(f) for f in args.files]
    if args.all:
        files.extend(discover_all())
    if args.compile_commands:
        files.extend(discover_compile_commands(Path(args.compile_commands)))
    if not files:
        print("error: no input files (use --all, --compile-commands, "
              "or list files)", file=sys.stderr)
        return 2

    seen = set()
    unique = []
    for path in files:
        if str(path) in seen:
            continue
        seen.add(str(path))
        if not path.exists():
            print(f"error: {path}: file not found", file=sys.stderr)
            return 2
        unique.append(path)

    findings = []
    jobs = max(1, args.jobs)
    if jobs > 1 and len(unique) > 1:
        work = [(str(p), selected) for p in unique]
        chunk = max(1, len(work) // (jobs * 4))
        with multiprocessing.Pool(jobs) as pool:
            for result in pool.map(_lint_worker, work,
                                   chunksize=chunk):
                findings.extend(result)
    else:
        for path in unique:
            findings.extend(lint_file(path, selected))

    findings.sort(key=lambda f: (f.path, f.line, f.check))
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"{len(findings)} finding(s) in {len(seen)} file(s)",
              file=sys.stderr)
        return 1
    print(f"helix-lint: {len(seen)} file(s) clean", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
