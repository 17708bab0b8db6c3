#!/usr/bin/env python3
"""Build and run the Helix benchmark (see benchmark/README.md).

  python3 benchmark/run.py [--seed S] [--seconds T] [--trace]
      Run every workload once and print each metric with its unit.
  python3 benchmark/run.py --workload W [--seed S] [--seconds T] [--trace 0|1]
      Run one workload. The last line of output is one JSON object with
      the keys correct, attempted, failed and metrics: the end-to-end
      metrics of BENCHMARK.json, or its per-layer metrics with --trace 1.
  python3 benchmark/run.py --runs N [--seed S] [--out DIR]
      N rounds, each running every workload once (interleaved), writing
      one JSON file per run with host metadata.
  python3 benchmark/run.py compare A B
      Compare two directories written by --runs against the bounds of
      BENCHMARK.json.

helix_bench is built as a Release build in build-bench/ at the root of
the repository. Each workload runs in a fresh single-threaded process
(the traced run reruns one simulation at four simulator threads). The
exit code is non-zero when a check fails or a metric is missing.
"""

import argparse
import fcntl
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-bench"
BINARY = BUILD_DIR / "helix_bench"
DATA_DIR = BENCH_DIR / "data"
SPEC_PATH = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 43
WORKLOAD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

# Printed beside the metrics of BENCHMARK.json. Those must exist on
# every workload; goodput_rps, jain and slo_attain exist only on the
# workload that runs their mechanism, the trace extras only when traced.
# The *_wall_s times are setup_s and run_s before the host-speed scaling.
EXTRA_UNITS = {
    "setup_wall_s": "s",
    "run_wall_s": "s",
    "host.reference_s": "s",
    "goodput_rps": "req/s",
    "jain": "ratio",
    "slo_attain": "ratio",
    "fail_ratio": "ratio",
    "ttft_samples": "count",
    "tpot_samples": "count",
}
TRACE_EXTRA_UNITS = {
    "scheduler.swap_s": "s",
    "bench.span_coverage": "ratio",
}


class BenchError(Exception):
    """A failure that prevents a measurement."""


def load_spec():
    try:
        return json.loads(SPEC_PATH.read_text())
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read {SPEC_PATH}: {error}")


def build():
    """Configure (once) and build helix_bench; output goes to a log."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no Helix sources at {ROOT}")
    BUILD_DIR.mkdir(exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "helix_bench", "-j", jobs])
    # One build at a time per checkout.
    with open(BUILD_DIR / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                status = subprocess.run(step, stdout=log,
                                        stderr=subprocess.STDOUT,
                                        timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                raise BenchError(f"build step {step[:2]} failed: {error}")
            if status != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def run_workload(name, seed, seconds, trace):
    """Run helix_bench once; returns its JSON report."""
    command = [str(BINARY), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--data", str(DATA_DIR)]
    if trace:
        command += ["--trace", "--spans",
                    str(BUILD_DIR / f"spans-{name}.json")]
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: no result within {WORKLOAD_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{name}: helix_bench exited {proc.returncode}")
    try:
        return json.loads(proc.stdout)
    except ValueError:
        raise BenchError(f"{name}: unreadable report")


def metric_list(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def problems(spec, report, trace):
    """Failed checks and missing or non-finite metrics of one report."""
    found = [f"check {c['name']} failed: {c['detail']}"
             for c in report["checks"] if not c["ok"]]
    for metric in metric_list(spec, trace):
        value = report["metrics"].get(metric["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            found.append(f"metric {metric['name']} missing")
    return found


def result_line(spec, report, trace):
    """The one-line result: correct, attempted, failed, metrics."""
    metrics = {m["name"]: {"value": report["metrics"][m["name"]],
                           "unit": m["unit"]}
               for m in metric_list(spec, trace)
               if m["name"] in report["metrics"]}
    return {"correct": not problems(spec, report, trace),
            "attempted": max(1, int(report["attempted"])),
            "failed": int(report["failed"]),
            "metrics": metrics}


def units(spec):
    table = dict(EXTRA_UNITS, **TRACE_EXTRA_UNITS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        table[metric["name"]] = metric["unit"]
    return table


def print_report(spec, report, trace):
    """Human-readable metrics and checks of one run."""
    unit_of = units(spec)
    print(f"== {report['workload']}  seed {report['seed']}  "
          f"{report['passes']} pass(es)  attempted {report['attempted']}  "
          f"failed {report['failed']}  output_digest "
          f"{report['output_digest']}")
    shown = [m["name"] for m in spec["end_to_end"]]
    extras = dict(EXTRA_UNITS)
    if trace:
        shown += [m["name"] for m in spec["per_layer"]]
        extras.update(TRACE_EXTRA_UNITS)
    shown += [name for name in report["metrics"]
              if name not in shown and name in extras]
    for name in shown:
        value = report["metrics"].get(name)
        text = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {text:>14s} {unit_of.get(name, '')}")
    for check in report["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        print(f"  [{mark}] {check['name']}: {check['detail']}")


def host_metadata(report):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "machine": platform.machine(), "compiler": report["compiler"],
            "build_type": report["build_type"], "git_sha": sha}


def cmd_runs(spec, args):
    """Interleaved rounds over every workload, one JSON file per run."""
    out = Path(args.out) if args.out else \
        BUILD_DIR / "runs" / time.strftime("%Y%m%d-%H%M%S")
    out.mkdir(parents=True, exist_ok=True)
    ok = True
    for index in range(args.runs):
        for workload in spec["workloads"]:
            name = workload["name"]
            report = run_workload(name, args.seed, args.seconds, False)
            record = {"workload": name, "run": index, "seed": args.seed,
                      "seconds": args.seconds, "host": host_metadata(report),
                      "report": report}
            (out / f"{name}-{index:03d}.json").write_text(
                json.dumps(record, indent=1) + "\n")
            found = problems(spec, report, False)
            ok = ok and not found
            print(f"run {index} {name}: run_s "
                  f"{report['metrics'].get('run_s', float('nan')):.3f}"
                  + ("" if not found else "  " + "; ".join(found)))
    print(f"wrote {out}")
    return 0 if ok else 1


def load_runs(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record["report"])
    if not runs:
        raise BenchError(f"no run files in {directory}")
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_compare(spec, base_dir, change_dir):
    """Apply the bounds of BENCHMARK.json to two sets of runs.

    For each workload and end-to-end metric: a change whose median is
    worse than the base median by more than the bound is a regression.
    Where the base's own spread (quartile distance over median) exceeds
    the bound, the metric is unresolved unless every change run reads
    better than every base run. A gain is claimed only from at least
    ten run pairs (paired by run order), when the change wins nine
    tenths of them and the medians differ by more than the base's
    spread.
    """
    base = load_runs(base_dir)
    change = load_runs(change_dir)
    regressions = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in base or name not in change:
            print(f"== {name}: missing from one side")
            regressions += 1
            continue
        a_runs, b_runs = base[name], change[name]
        same = {r["output_digest"] for r in a_runs} == \
            {r["output_digest"] for r in b_runs}
        print(f"== {name}  base {len(a_runs)} runs, change {len(b_runs)} "
              f"runs, outputs {'identical' if same else 'DIFFER'}")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            a = [r["metrics"][key] for r in a_runs]
            b = [r["metrics"][key] for r in b_runs]
            a1, a_med, a3 = quartiles(a)
            b1, b_med, b3 = quartiles(b)
            spread = (a3 - a1) / abs(a_med) if a_med else 0.0
            worse = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
            pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
            all_better = max(sign * y for y in b) < min(sign * x for x in a)
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif (-worse > spread and len(pairs) >= 10
                  and wins >= 0.9 * len(pairs)):
                verdict = "improved"
            else:
                verdict = "within bound"
            print(f"  {key:16s} base {a_med:.6g} [{a1:.6g}, {a3:.6g}]  "
                  f"change {b_med:.6g} [{b1:.6g}, {b3:.6g}] "
                  f"{metric['unit']}  {-worse:+.2%} (bound {bound:.0%}, "
                  f"spread {spread:.2%})  {verdict}")
    return 1 if regressions else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Build and run the Helix benchmark.")
    parser.add_argument("--workload", help="run one workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        help="measured seconds per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1],
                        help="traced run: per-layer metrics and spans in "
                             "build-bench/spans-<workload>.json")
    parser.add_argument("--runs", type=int,
                        help="interleaved rounds over every workload")
    parser.add_argument("--out", help="directory for --runs files")
    return parser.parse_args(argv)


def main(argv):
    try:
        spec = load_spec()
        if argv[:1] == ["compare"]:
            if len(argv) != 3:
                print("usage: run.py compare BASE_DIR CHANGE_DIR",
                      file=sys.stderr)
                return 2
            return cmd_compare(spec, argv[1], argv[2])
        args = parse_args(argv)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            print(f"unknown workload {args.workload!r}; one of "
                  f"{', '.join(names)}", file=sys.stderr)
            return 2
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        build()
        if args.runs:
            return cmd_runs(spec, args)
        trace = bool(args.trace)
        ok = True
        for name in [args.workload] if args.workload else names:
            report = run_workload(name, args.seed, args.seconds, trace)
            print_report(spec, report, trace)
            ok = ok and not problems(spec, report, trace)
        if args.workload:
            print(json.dumps(result_line(spec, report, trace)))
        return 0 if ok else 1
    except BenchError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
