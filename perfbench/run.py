#!/usr/bin/env python3
"""The repository's benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Builds the perfbench binary from source (CMake, Release, into
.bench_build/perfbench at the repository root), runs one workload, and
checks that the result line names every metric of metrics.json for the mode
with its unit. The binary's output is passed through; its last line is the
JSON result. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run.

--smoke runs every workload in both modes on tiny inputs (a few seconds in
all) and asserts the same, plus agreement with BENCHMARK.json when present.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def catalogue():
    with open(HERE / "metrics.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the binary; build output goes to stderr."""
    if not (ROOT / "src" / "pipeline" / "stages.hpp").is_file():
        log(f"program sources not found under {ROOT / 'src'}")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    done = subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                          stdout=sys.stderr)
    return done.returncode == 0 and BINARY.is_file()


def run_binary(args):
    """Runs the binary; returns (exit code, stdout text)."""
    try:
        done = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1, out
    return done.returncode, done.stdout


def check_result(stdout, expected):
    """Problems with the result line against {name: unit}; [] when none."""
    lines = stdout.strip().splitlines()
    if not lines:
        return ["no output"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return ["last line is not JSON"]
    if set(result) != RESULT_KEYS:
        return [f"result keys {sorted(result)}"]
    problems = []
    if result["correct"] is not True:
        problems.append("correct is not true")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if result["failed"] != 0:
        problems.append(f"{result['failed']} failed")
    metrics = result["metrics"]
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"metric {name} missing")
        elif m.get("unit") != unit:
            problems.append(f"metric {name} has unit {m.get('unit')}, not {unit}")
        elif not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"metric {name} is not a finite number")
    for name in metrics:
        if name not in expected:
            problems.append(f"metric {name} is not in metrics.json")
    return problems


def expected_metrics(trace):
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in catalogue()[section]}


def data_args(workload):
    traces = ROOT / ".bench_build" / "perfbench-traces"
    traces.mkdir(parents=True, exist_ok=True)
    return ["--data-dir", str(ROOT / ".bench_build" / "perfbench-data"),
            "--trace-out", str(traces / f"{workload}.json")]


def smoke():
    cat = catalogue()
    failures = []
    bench = ROOT / "BENCHMARK.json"
    if bench.is_file():
        declared = json.loads(bench.read_text(encoding="utf-8"))
        for section in ("end_to_end", "per_layer", "workloads"):
            key = "why" if section == "workloads" else "unit"
            mine = {(m["name"], m[key]) for m in cat[section]}
            theirs = {(m["name"], m[key]) for m in declared[section]}
            if mine != theirs:
                failures.append(f"BENCHMARK.json {section} differs from metrics.json")
    for w in cat["workloads"]:
        for trace in (0, 1):
            code, out = run_binary(["--workload", w["name"], "--seed", "7",
                                    "--seconds", "1", "--trace", str(trace),
                                    "--smoke"] + data_args(w["name"]))
            problems = check_result(out, expected_metrics(trace))
            if code != 0:
                problems.append(f"exit code {code}")
            status = "ok" if not problems else "; ".join(problems)
            print(f"smoke {w['name']} trace={trace}: {status}", flush=True)
            failures += [f"{w['name']} trace={trace}: {p}" for p in problems]
    for f in failures:
        log(f)
    print("smoke: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not build():
        log("build failed")
        return 1
    if args.smoke:
        return smoke()
    names = [w["name"] for w in catalogue()["workloads"]]
    if args.workload not in names:
        log(f"--workload must be one of {', '.join(names)}")
        return 2
    code, out = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                            "--seconds", repr(args.seconds),
                            "--trace", str(args.trace)] + data_args(args.workload))
    sys.stdout.write(out)
    sys.stdout.flush()
    problems = check_result(out, expected_metrics(args.trace))
    for p in problems:
        log(p)
    if code != 0:
        return code
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
