#!/usr/bin/env python3
"""Golden tests for tools/helix_analyze.py.

Each check id has a violating and a clean fixture under
tests/data/analyze/. Violating fixtures carry marker comments naming
the exact finding the analyzer must emit:

    bad_line();  // LINT-EXPECT: <check-id>      (finding on this line)
    // LINT-EXPECT-NEXT: <check-id>              (finding on the next)

The cross-artifact checks (metrics-schema, param-docs, bench-docs)
span several fixture files driven through the artifact-override
flags; the expected set is the union of the markers in every file of
the case.

The driver asserts:

  * each violating fixture exits 1 with exactly the marked
    (path, line, check-id) findings — no more, no fewer;
  * each clean fixture exits 0 with no findings;
  * a justified allow() suppresses its finding (suppression_clean);
  * a malformed allow() is itself a finding (suppression_violation);
  * usage errors (unknown check id, missing file) exit 2.

Registered in CTest as ``helix_analyze_fixtures``; the companion
``helix_analyze_tree`` test runs the analyzer over the real tree.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ANALYZER = REPO_ROOT / "tools" / "helix_analyze.py"
FIXTURE_DIR = REPO_ROOT / "tests" / "data" / "analyze"

EXPECT_RE = re.compile(r"LINT-EXPECT:\s*([\w-]+)")
EXPECT_NEXT_RE = re.compile(r"LINT-EXPECT-NEXT:\s*([\w-]+)")
FINDING_RE = re.compile(r"^(.+?):(\d+): \[([\w-]+)\] (.*)$")

failures = []


def fail(message):
    failures.append(message)
    print(f"FAIL: {message}")


def ok(message):
    print(f"ok: {message}")


def rel(path: Path) -> str:
    return path.resolve().relative_to(REPO_ROOT).as_posix()


def expected_findings(paths):
    expected = set()
    for path in paths:
        r = rel(path)
        lines = path.read_text().split("\n")
        for lineno, line in enumerate(lines, start=1):
            m = EXPECT_RE.search(line)
            if m:
                expected.add((r, lineno, m.group(1)))
            m = EXPECT_NEXT_RE.search(line)
            if m:
                expected.add((r, lineno + 1, m.group(1)))
    return expected


def run_analyzer(args):
    proc = subprocess.run(
        [sys.executable, str(ANALYZER)] + args,
        capture_output=True, text=True, cwd=REPO_ROOT)
    findings = set()
    for line in proc.stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            findings.add((m.group(1), int(m.group(2)), m.group(3)))
    return proc.returncode, findings


def check_violating(name, args, marker_files):
    expected = expected_findings(marker_files)
    if not expected:
        fail(f"{name}: no LINT-EXPECT markers")
        return
    code, findings = run_analyzer(args)
    if code != 1:
        fail(f"{name}: expected exit 1, got {code}")
    if findings != expected:
        fail(f"{name}: findings {sorted(findings)} != "
             f"expected {sorted(expected)}")
    else:
        ok(f"{name}: exact findings, exit 1")


def check_clean(name, args):
    code, findings = run_analyzer(args)
    if code != 0 or findings:
        fail(f"{name}: expected clean exit 0, got exit {code} "
             f"with {sorted(findings)}")
    else:
        ok(f"{name}: clean, exit 0")


def main():
    d = FIXTURE_DIR

    # metrics-schema across the four artifacts.
    drift = d / "schema_drift"
    check_violating(
        "schema_drift",
        ["--checks", "metrics-schema",
         "--metrics-header", str(drift / "metrics.h"),
         "--schema", str(drift / "schema.cpp"),
         "--emitters", str(drift / "emitters.cpp"),
         "--fingerprint", str(drift / "fingerprint.cpp")],
        [drift / "metrics.h", drift / "schema.cpp"])
    clean = d / "schema_clean"
    check_clean(
        "schema_clean",
        ["--checks", "metrics-schema",
         "--metrics-header", str(clean / "metrics.h"),
         "--schema", str(clean / "schema.cpp"),
         "--emitters", str(clean / "emitters.cpp"),
         "--fingerprint", str(clean / "fingerprint.cpp")])

    # param-docs in both directions.
    pdv = d / "param_docs_violation"
    check_violating(
        "param_docs_violation",
        ["--checks", "param-docs",
         "--params", str(pdv / "params.cpp"),
         "--docs", str(pdv / "docs.md")],
        [pdv / "params.cpp", pdv / "docs.md"])
    pdc = d / "param_docs_clean"
    check_clean(
        "param_docs_clean",
        ["--checks", "param-docs",
         "--params", str(pdc / "params.cpp"),
         "--docs", str(pdc / "docs.md")])

    # bench-docs against a fixture bench dir + README.
    bdv = d / "bench_docs_violation"
    check_violating(
        "bench_docs_violation",
        ["--checks", "bench-docs",
         "--bench-dir", str(bdv / "bench"),
         "--readme", str(bdv / "readme.md")],
        [bdv / "bench" / "orphan.cpp"])
    bdc = d / "bench_docs_clean"
    check_clean(
        "bench_docs_clean",
        ["--checks", "bench-docs",
         "--bench-dir", str(bdc / "bench"),
         "--readme", str(bdc / "readme.md")])

    # suppression: malformed directives are findings; a justified
    # allow() suppresses the metrics-schema finding it covers (the
    # fixture is a schema table with one unfingerprinted row).
    check_violating(
        "suppression_violation.cpp",
        ["--checks", "suppression",
         str(d / "suppression_violation.cpp")],
        [d / "suppression_violation.cpp"])
    check_clean(
        "suppression_clean.cpp (justified allow suppresses)",
        ["--checks", "metrics-schema",
         "--metrics-header", str(clean / "metrics.h"),
         "--schema", str(d / "suppression_clean.cpp"),
         "--emitters", str(clean / "emitters.cpp"),
         "--fingerprint", str(clean / "fingerprint.cpp")])

    # Usage errors exit 2.
    code, _ = run_analyzer(["--checks", "no-such-check",
                            str(d / "suppression_clean.cpp")])
    if code != 2:
        fail(f"unknown check id: expected exit 2, got {code}")
    else:
        ok("unknown check id exits 2")
    code, _ = run_analyzer([str(d / "does_not_exist.cpp")])
    if code != 2:
        fail(f"missing file: expected exit 2, got {code}")
    else:
        ok("missing file exits 2")

    # --list-checks names every check the fixtures cover.
    proc = subprocess.run(
        [sys.executable, str(ANALYZER), "--list-checks"],
        capture_output=True, text=True, cwd=REPO_ROOT)
    listed = {line.split(":", 1)[0]
              for line in proc.stdout.splitlines()}
    wanted = {"metrics-schema", "param-docs", "bench-docs",
              "suppression"}
    missing = wanted - listed
    if proc.returncode != 0 or missing:
        fail(f"--list-checks: exit {proc.returncode}, "
             f"missing {missing}")
    else:
        ok("--list-checks covers every fixture check")

    if failures:
        print(f"\n{len(failures)} failure(s)")
        return 1
    print("\nall helix-analyze fixture tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
