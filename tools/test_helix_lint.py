#!/usr/bin/env python3
"""Fixture tests for tools/helix_lint.py.

Each case under tests/data/lint/ is a small source tree whose files sit
at the real paths (src/sim/..., src/exp/schema.cpp, README.md, ...).
The driver runs ``helix_lint.py --root <case> --all --checks <ids>``
and compares the findings with markers in the case's files:

    bad_line();  // LINT-EXPECT: <check-id>      (finding on this line)
    // LINT-EXPECT-NEXT: <check-id>              (finding on the next)

A case with markers must exit 1 with exactly the marked (path, line,
check-id) findings; a case without must exit 0 with none. The driver
also asserts that the justified allow() in suppression_clean is what
keeps it clean, that usage errors exit 2, and that --list-checks names
exactly the checks the cases cover.

Registered in CTest as ``helix_lint_fixtures``; ``helix_lint_tree``
runs the linter over the real tree.
"""

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LINTER = REPO_ROOT / "tools" / "helix_lint.py"
FIXTURE_DIR = REPO_ROOT / "tests" / "data" / "lint"

# (case directory, --checks value). A directory is named for the check
# it tests, <check_id>_{violation,clean}, with '-' spelled '_'.
CASES = [
    ("raw_random_violation", "raw-random"),
    ("raw_random_clean", "raw-random"),
    ("unordered_iter_violation", "unordered-iter"),
    ("unordered_iter_clean", "unordered-iter"),
    ("hot_path_std_function_violation", "hot-path-std-function"),
    ("hot_path_std_function_clean", "hot-path-std-function"),
    ("raw_thread_violation", "raw-thread"),
    ("raw_thread_clean", "raw-thread"),
    ("param_registry_violation", "param-registry"),
    ("param_registry_clean", "param-registry"),
    ("metrics_schema_violation", "metrics-schema"),
    ("metrics_schema_clean", "metrics-schema"),
    ("param_docs_violation", "param-docs"),
    ("param_docs_clean", "param-docs"),
    ("bench_docs_violation", "bench-docs"),
    ("bench_docs_clean", "bench-docs"),
    # Malformed allow()s in C++ and Markdown; the bare one above a
    # raw-random finding does not suppress it.
    ("suppression_violation", "raw-random,bench-docs"),
    # A justified allow() suppresses a metrics-schema finding.
    ("suppression_clean", "metrics-schema"),
]

EXPECT_RE = re.compile(r"LINT-EXPECT:\s*([\w-]+)")
EXPECT_NEXT_RE = re.compile(r"LINT-EXPECT-NEXT:\s*([\w-]+)")
FINDING_RE = re.compile(r"^(.+?):(\d+): \[([\w-]+)\] ")
ALLOW_RE = re.compile(r"helix-lint: allow\(")

failures = []


def fail(message):
    failures.append(message)
    print(f"FAIL: {message}")


def ok(message):
    print(f"ok: {message}")


def case_check(case):
    return case.rsplit("_", 1)[0].replace("_", "-")


def expected_findings(root):
    expected = set()
    for path in sorted(root.rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        for lineno, line in enumerate(path.read_text().split("\n"),
                                      start=1):
            for pattern, offset in ((EXPECT_RE, 0), (EXPECT_NEXT_RE, 1)):
                m = pattern.search(line)
                if m:
                    expected.add((rel, lineno + offset, m.group(1)))
    return expected


def run_linter(args):
    proc = subprocess.run(
        [sys.executable, str(LINTER)] + args,
        capture_output=True, text=True, cwd=REPO_ROOT)
    findings = set()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.add((m.group(1), int(m.group(2)), m.group(3)))
    return proc.returncode, findings


def check_case(name, root, checks, expected):
    code, findings = run_linter(
        ["--root", str(root), "--all", "--checks", checks])
    want_code = 1 if expected else 0
    if code != want_code or findings != expected:
        fail(f"{name}: exit {code} (want {want_code}), findings "
             f"{sorted(findings)} != expected {sorted(expected)}")
    else:
        ok(f"{name}: {len(findings)} exact finding(s), exit {code}")


def main():
    for case, checks in CASES:
        root = FIXTURE_DIR / case
        check_case(case, root, checks, expected_findings(root))

    # Without its allow() line, suppression_clean must fail.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "tree"
        shutil.copytree(FIXTURE_DIR / "suppression_clean", root)
        header = root / "src" / "sim" / "simulator.h"
        lines = header.read_text().split("\n")
        allow = next(i for i, line in enumerate(lines)
                     if ALLOW_RE.search(line))
        del lines[allow]
        header.write_text("\n".join(lines))
        check_case("suppression_clean without its allow()", root,
                   "metrics-schema",
                   {("src/sim/simulator.h", allow + 1, "metrics-schema")})

    # Only the key table's rows declare keys: a quoted string outside
    # it, like the scenario-kind list, does not, so the violations
    # still fail.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "tree"
        case = FIXTURE_DIR / "param_registry_violation"
        shutil.copytree(case, root)
        spec = root / "src" / "io" / "spec.cpp"
        spec.write_text(
            'constexpr const char *kScenarioKinds[] = {"frob-budget", '
            '"shard-count", "burst-shape"};\n' + spec.read_text())
        check_case("param_registry_violation with its keys quoted "
                   "outside the table", root, "param-registry",
                   {(rel, line + 1, check) for rel, line, check
                    in expected_findings(case)})

    # Usage errors exit 2: an unknown check id, a missing file, and a
    # tree check whose input file is missing.
    usage_errors = [
        ("unknown check id", ["--checks", "no-such-check", "--all"]),
        ("missing file", [str(FIXTURE_DIR / "does_not_exist.cpp")]),
        ("missing tree-check input",
         ["--root", str(FIXTURE_DIR / "raw_random_clean"), "--all",
          "--checks", "metrics-schema"]),
    ]
    for name, args in usage_errors:
        code, _ = run_linter(args)
        if code != 2:
            fail(f"{name}: expected exit 2, got {code}")
        else:
            ok(f"{name} exits 2")

    proc = subprocess.run(
        [sys.executable, str(LINTER), "--list-checks"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    listed = {line.split(":", 1)[0] for line in proc.stdout.splitlines()}
    covered = {case_check(case) for case, _ in CASES}
    if proc.returncode != 0 or listed != covered:
        fail(f"--list-checks: exit {proc.returncode}, listed "
             f"{sorted(listed)} != covered {sorted(covered)}")
    else:
        ok("--list-checks names exactly the checks the cases cover")

    if failures:
        print(f"\n{len(failures)} failure(s)")
        return 1
    print("\nall helix-lint fixture tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
