#!/usr/bin/env python3
"""Perf-regression gate for the checked-in bench baselines.

Compares a freshly measured bench JSON against its baseline in
bench/baselines/ and fails CI on regression. The gate dispatches on the
document's `schema` field:

  rtm (schema 1, BENCH_rtm.json)
    The lock-free mailbox fast path. Three classes of checks:

      hard floors    Invariants of the optimization itself, independent of
                     host speed: the ping-pong reduction must stay >= 25%
                     (the PR's acceptance bar), every ping-pong push must
                     take the ring, and the kill switch must still force
                     the locked path.

      exact matches  Workload shape is deterministic (message and byte
                     counts from the traffic matrix, lookup counts). Any
                     drift means an accounting or protocol regression, not
                     noise.

      tolerance      Reduction percentages are compared against the
                     baseline with a band wide enough for shared-runner
                     noise. Absolute ns/msg numbers are host-dependent and
                     only warn.

  fig5 (schema "reptile-bench-fig5-v1", BENCH_fig5.json)
    The heuristics ablation counters, all deterministic (seeded dataset,
    fixed topology, fault-free run), so everything is exact-matched against
    the baseline. On top of that, structural invariants of the run itself:
    every heuristic row must produce identical corrected output
    (substitutions / reads_changed equal across rows), the filtered rows
    must answer definite absences locally (filter_neg_hits > 0) while the
    unfiltered rows must not, and filtering must strictly reduce the IDs
    sent over the wire (wire_ids: scalar round trips plus batched IDs)
    versus the same row without filters.

  scaling (schema "reptile-bench-scaling-v1", BENCH_scaling.json)
    The fig6/fig7/fig8 scaling trajectory. Functional rows come from the
    real runtime on a seeded dataset with fixed topology, so their work
    counters (max_remote_lookups, substitutions, reads_changed,
    construction_peak_bytes) are exact-matched per rank count; the
    baseline must keep at least two rank counts or the trajectory
    degenerates to a point. Wall times and ledger/RSS peaks are
    host-dependent and only warn, as do all modeled (perfmodel) rows —
    the model is calibrated from host-measured traits, so its absolute
    seconds drift with the runner.

  serve (schema "reptile-bench-serve-v1", BENCH_serve.json)
    The resident correction server. One hard invariant independent of the
    baseline: spectrum_builds_per_rank == 1 — the whole point of the serve
    refactor is that LoadBalance/BuildSpectrum run once per rank and jobs
    reuse the resident spectrum. The functional counters (jobs, ranks,
    degraded_jobs, substitutions, reads_changed) come from a seeded
    fault-free run and are exact-matched; jobs/sec and the latency
    percentiles are host-dependent and only warn on large drift.

Stdlib only; exit code 0 = pass, 1 = regression.
"""

from __future__ import annotations

import argparse
import json
import sys

# Acceptance bar from the PR that introduced the fast path: per-message
# ping-pong cost must be at least this much cheaper than the locked path.
HARD_MIN_PINGPONG_REDUCTION_PCT = 25.0

# How far a reduction ratio may fall below the checked-in baseline before
# the gate fails. The two-thread ping-pong is structurally robust (wide
# locked-vs-fast gap); the single-thread loop is noisier on shared runners.
PINGPONG_REDUCTION_BAND_PCT = 15.0
LOOP_REDUCTION_BAND_PCT = 25.0

EXACT_KEYS = [
    ("pingpong", "rounds"),
    ("pingpong", "msgs"),
    ("pingpong", "bytes"),
    ("lookup", "lookups"),
    ("lookup", "msgs"),
    ("lookup", "bytes"),
]

WARN_KEYS = [
    ("mailbox_loop", "locked_ns_per_msg"),
    ("mailbox_loop", "fast_ns_per_msg"),
    ("pingpong", "locked_ns_per_msg"),
    ("pingpong", "fast_ns_per_msg"),
    ("lookup_rtt_us", "p50_us"),
    ("lookup_rtt_us", "p99_us"),
]

FIG5_SCHEMA = "reptile-bench-fig5-v1"
SERVE_SCHEMA = "reptile-bench-serve-v1"
SCALING_SCHEMA = "reptile-bench-scaling-v1"

# Deterministic serve counters (seeded dataset, fault-free run): any drift
# vs the baseline is a functional regression.
SERVE_EXACT = ["ranks", "jobs", "degraded_jobs", "substitutions",
               "reads_changed"]

# Host-dependent serve numbers: warn outside a 2x band, never fail.
SERVE_WARN = ["jobs_per_sec", "latency_p50_ms", "latency_p99_ms",
              "latency_max_ms"]

# Counters every fig5 row carries; all deterministic, all exact-matched.
FIG5_COUNTERS = [
    "remote_lookups",
    "wire_ids",
    "filter_neg_hits",
    "filter_false_positives",
    "substitutions",
    "reads_changed",
    "sent_msgs",
]

# (filtered row, its unfiltered counterpart) pairs: the filter point must
# strictly reduce the IDs sent over the wire against the same configuration.
# wire_ids, not remote_lookups: a wavefront row has ~no scalar round trips
# to reduce, and in a scalar row the two are equal.
FIG5_FILTER_PAIRS = [
    ("filtered", "base"),
    ("filtered_batched", "batched_lookups"),
]

# Deterministic scaling counters (seeded dataset, fixed topology): exact
# per functional rank-count row.
SCALING_EXACT = ["max_remote_lookups", "substitutions", "reads_changed",
                 "construction_peak_bytes"]

# Host-dependent functional numbers: warn outside a 2x band, never fail.
# Ledger/RSS peaks are zero unless the run armed --ledger.
SCALING_WARN = ["construct_seconds", "correct_seconds",
                "ledger_total_peak_bytes", "rss_peak_bytes"]

# Every modeled number is warn-only: perfmodel calibrates on host-measured
# traits, so absolute seconds drift with the runner.
SCALING_MODELED_WARN = ["construct_seconds", "correct_seconds",
                        "total_seconds", "mb_per_rank", "efficiency"]


def get(doc: dict, section: str, key: str):
    try:
        return doc[section][key]
    except KeyError:
        return None


def gate_rtm(cur: dict, base: dict) -> tuple[list[str], list[str]]:
    failures: list[str] = []
    warnings: list[str] = []

    # -- hard floors ------------------------------------------------------
    pp_red = get(cur, "pingpong", "reduction_pct")
    if pp_red is None or pp_red < HARD_MIN_PINGPONG_REDUCTION_PCT:
        failures.append(
            f"pingpong.reduction_pct = {pp_red} is below the hard floor "
            f"{HARD_MIN_PINGPONG_REDUCTION_PCT}")

    rounds = get(cur, "pingpong", "rounds")
    fast_pushes = get(cur, "pingpong", "fast_pushes")
    if fast_pushes != rounds:
        failures.append(
            f"pingpong.fast_pushes = {fast_pushes}, expected every push "
            f"({rounds}) to take the ring fast path")
    locked_fast = get(cur, "pingpong", "locked_run_fast_pushes")
    if locked_fast != 0:
        failures.append(
            f"pingpong.locked_run_fast_pushes = {locked_fast}, the "
            f"mailbox_fast_path=false kill switch leaked ring pushes")

    # -- exact workload shape --------------------------------------------
    for section, key in EXACT_KEYS:
        c, b = get(cur, section, key), get(base, section, key)
        if c != b:
            failures.append(
                f"{section}.{key} = {c} differs from baseline {b} "
                f"(workload is deterministic; this is an accounting or "
                f"protocol change, not noise)")

    # -- tolerance bands vs baseline -------------------------------------
    for section, band in (("pingpong", PINGPONG_REDUCTION_BAND_PCT),
                          ("mailbox_loop", LOOP_REDUCTION_BAND_PCT)):
        c = get(cur, section, "reduction_pct")
        b = get(base, section, "reduction_pct")
        if c is None or b is None:
            failures.append(f"{section}.reduction_pct missing")
        elif c < b - band:
            failures.append(
                f"{section}.reduction_pct = {c:.1f} fell more than "
                f"{band:.0f} points below baseline {b:.1f}")

    # -- informational drift ---------------------------------------------
    for section, key in WARN_KEYS:
        c, b = get(cur, section, key), get(base, section, key)
        if c is None or b is None or b == 0:
            continue
        ratio = c / b
        if ratio > 2.0 or ratio < 0.5:
            warnings.append(
                f"{section}.{key} = {c} vs baseline {b} "
                f"({ratio:.2f}x; host-dependent, not gated)")

    print(f"  pingpong reduction : {pp_red:.1f}% "
          f"(baseline {get(base, 'pingpong', 'reduction_pct'):.1f}%, "
          f"hard floor {HARD_MIN_PINGPONG_REDUCTION_PCT:.0f}%)")
    loop_red = get(cur, "mailbox_loop", "reduction_pct")
    if loop_red is not None:
        print(f"  loop reduction     : {loop_red:.1f}% "
              f"(baseline {get(base, 'mailbox_loop', 'reduction_pct'):.1f}%)")
    return failures, warnings


def gate_fig5(cur: dict, base: dict) -> tuple[list[str], list[str]]:
    failures: list[str] = []
    rows = cur.get("rows", {})
    base_rows = base.get("rows", {})

    # -- structural invariants of the current run ------------------------
    # Every heuristic row corrects the same reads the same way: the ablation
    # varies WHERE counts are found, never WHAT the corrector decides.
    for key in ("substitutions", "reads_changed"):
        values = {name: row.get(key) for name, row in rows.items()}
        if len(set(values.values())) > 1:
            failures.append(
                f"{key} differs across heuristic rows: {values} "
                f"(every heuristic must produce identical output)")

    for name, row in rows.items():
        is_filtered = name.startswith("filtered")
        neg = row.get("filter_neg_hits", 0)
        if is_filtered and not neg > 0:
            failures.append(
                f"rows.{name}.filter_neg_hits = {neg}: the filter point "
                f"answered no definite absences locally")
        if not is_filtered and neg != 0:
            failures.append(
                f"rows.{name}.filter_neg_hits = {neg} on an unfiltered "
                f"row: the default-off contract is broken")

    for filtered, plain in FIG5_FILTER_PAIRS:
        f_row = get(cur, "rows", filtered)
        p_row = get(cur, "rows", plain)
        if f_row is None or p_row is None:
            failures.append(
                f"rows missing for filter pair ({filtered}, {plain})")
            continue
        if not f_row["wire_ids"] < p_row["wire_ids"]:
            failures.append(
                f"rows.{filtered}.wire_ids = "
                f"{f_row['wire_ids']} did not drop below "
                f"rows.{plain}.wire_ids = "
                f"{p_row['wire_ids']}")

    # -- exact match against the baseline --------------------------------
    if set(rows) != set(base_rows):
        failures.append(
            f"row set changed: current {sorted(rows)} vs baseline "
            f"{sorted(base_rows)} (regenerate the baseline deliberately)")
    for name in sorted(set(rows) & set(base_rows)):
        for key in FIG5_COUNTERS:
            c, b = rows[name].get(key), base_rows[name].get(key)
            if c != b:
                failures.append(
                    f"rows.{name}.{key} = {c} differs from baseline {b} "
                    f"(counters are deterministic; regenerate the baseline "
                    f"only for a deliberate behaviour change)")

    if "filtered" in rows and "base" in rows:
        print(f"  base remote lookups    : {rows['base']['remote_lookups']}")
        print(f"  filtered remote lookups: "
              f"{rows['filtered']['remote_lookups']} "
              f"(neg hits {rows['filtered']['filter_neg_hits']}, "
              f"false positives "
              f"{rows['filtered']['filter_false_positives']})")
    return failures, []


def gate_scaling(cur: dict, base: dict) -> tuple[list[str], list[str]]:
    failures: list[str] = []
    warnings: list[str] = []

    if cur.get("figure") != base.get("figure"):
        failures.append(
            f"figure mismatch: current {cur.get('figure')} vs baseline "
            f"{base.get('figure')} (compare a driver against its own "
            f"baseline)")
        return failures, warnings

    fn = cur.get("functional", {})
    base_fn = base.get("functional", {})

    # -- trajectory shape -------------------------------------------------
    # A scaling baseline with fewer than two rank counts is a point, not a
    # trajectory; only enforced where the baseline itself has functional
    # rows (fig7/fig8 are modeled-only).
    if base_fn and len(base_fn) < 2:
        failures.append(
            f"baseline functional section has {len(base_fn)} rank count(s), "
            f"need >= 2 for a scaling trajectory")
    if set(fn) != set(base_fn):
        failures.append(
            f"functional rank counts changed: current {sorted(fn)} vs "
            f"baseline {sorted(base_fn)} (regenerate the baseline "
            f"deliberately)")

    # -- structural invariant of the current run --------------------------
    # Rank count changes WHERE reads are corrected, never WHAT the
    # corrector decides: every functional row must produce identical
    # corrected output.
    for key in ("substitutions", "reads_changed"):
        values = {ranks: row.get(key) for ranks, row in fn.items()}
        if len(set(values.values())) > 1:
            failures.append(
                f"functional.{key} differs across rank counts: {values} "
                f"(correction output must be rank-count invariant)")

    # -- exact functional counters vs baseline ----------------------------
    for ranks in sorted(set(fn) & set(base_fn), key=int):
        for key in SCALING_EXACT:
            c, b = fn[ranks].get(key), base_fn[ranks].get(key)
            if c != b:
                failures.append(
                    f"functional.{ranks}.{key} = {c} differs from baseline "
                    f"{b} (counters are deterministic; regenerate the "
                    f"baseline only for a deliberate behaviour change)")
        for key in SCALING_WARN:
            c, b = fn[ranks].get(key), base_fn[ranks].get(key)
            if c is None or b is None or b == 0:
                continue
            ratio = c / b
            if ratio > 2.0 or ratio < 0.5:
                warnings.append(
                    f"functional.{ranks}.{key} = {c} vs baseline {b} "
                    f"({ratio:.2f}x; host-dependent, not gated)")

    # -- modeled rows: drift is informational only ------------------------
    modeled = cur.get("modeled", {})
    base_modeled = base.get("modeled", {})
    for ranks in sorted(set(modeled) & set(base_modeled), key=int):
        for key in SCALING_MODELED_WARN:
            c = modeled[ranks].get(key)
            b = base_modeled[ranks].get(key)
            if c is None or b is None or b == 0:
                continue
            ratio = c / b
            if ratio > 2.0 or ratio < 0.5:
                warnings.append(
                    f"modeled.{ranks}.{key} = {c} vs baseline {b} "
                    f"({ratio:.2f}x; model is trait-calibrated, not gated)")

    if fn:
        counts = {ranks: fn[ranks].get("max_remote_lookups")
                  for ranks in sorted(fn, key=int)}
        print(f"  functional rank counts : {sorted(fn, key=int)}")
        print(f"  max remote lookups     : {counts}")
    print(f"  modeled rank counts    : {sorted(modeled, key=int)}")
    return failures, warnings


def gate_serve(cur: dict, base: dict) -> tuple[list[str], list[str]]:
    failures: list[str] = []
    warnings: list[str] = []

    # -- hard invariant of the serve refactor ----------------------------
    builds = get(cur, "serve", "spectrum_builds_per_rank")
    if builds != 1:
        failures.append(
            f"serve.spectrum_builds_per_rank = {builds}, expected exactly 1 "
            f"(the resident spectrum must be built once and reused by every "
            f"job)")

    # -- exact functional counters vs baseline ---------------------------
    for key in SERVE_EXACT:
        c, b = get(cur, "serve", key), get(base, "serve", key)
        if c != b:
            failures.append(
                f"serve.{key} = {c} differs from baseline {b} "
                f"(counters are deterministic; regenerate the baseline only "
                f"for a deliberate behaviour change)")

    # -- informational perf drift ----------------------------------------
    for key in SERVE_WARN:
        c, b = get(cur, "serve", key), get(base, "serve", key)
        if c is None or b is None or b == 0:
            continue
        ratio = c / b
        if ratio > 2.0 or ratio < 0.5:
            warnings.append(
                f"serve.{key} = {c} vs baseline {b} "
                f"({ratio:.2f}x; host-dependent, not gated)")

    jps = get(cur, "serve", "jobs_per_sec")
    p50 = get(cur, "serve", "latency_p50_ms")
    p99 = get(cur, "serve", "latency_p99_ms")
    if jps is not None:
        print(f"  throughput : {jps:.2f} jobs/sec "
              f"(baseline {get(base, 'serve', 'jobs_per_sec'):.2f})")
    if p50 is not None and p99 is not None:
        print(f"  latency    : p50 {p50:.1f} ms, p99 {p99:.1f} ms")
    print(f"  spectrum builds per rank: {builds} (hard: must be 1)")
    return failures, warnings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", required=True,
                        help="bench JSON produced by this run")
    parser.add_argument("--baseline", required=True,
                        help="checked-in bench/baselines/ counterpart")
    args = parser.parse_args()

    with open(args.current, encoding="utf-8") as f:
        cur = json.load(f)
    with open(args.baseline, encoding="utf-8") as f:
        base = json.load(f)

    print(f"bench_gate: current={args.current} baseline={args.baseline}")

    failures: list[str] = []
    warnings: list[str] = []
    if cur.get("schema") != base.get("schema"):
        failures.append(
            f"schema mismatch: current {cur.get('schema')} vs "
            f"baseline {base.get('schema')}")
    elif cur.get("schema") == FIG5_SCHEMA:
        failures, warnings = gate_fig5(cur, base)
    elif cur.get("schema") == SERVE_SCHEMA:
        failures, warnings = gate_serve(cur, base)
    elif cur.get("schema") == SCALING_SCHEMA:
        failures, warnings = gate_scaling(cur, base)
    else:
        failures, warnings = gate_rtm(cur, base)

    for w in warnings:
        print(f"  WARN: {w}")
    if failures:
        for f_ in failures:
            print(f"  FAIL: {f_}")
        print(f"bench_gate: {len(failures)} regression(s)")
        return 1
    print("bench_gate: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
