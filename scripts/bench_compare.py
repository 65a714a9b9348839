#!/usr/bin/env python3
"""Perf-regression gate over canonical nplus-bench JSON (`nplus-bench-v1`).

Compares a fresh run against a checked-in baseline and fails (exit 1) when
any throughput- or latency-class metric regressed by more than the gate.
It serves the kernel-microbench timing gate: scripts/micro_bench_gate.py
converts google-benchmark output to this schema, and the comparison runs
with that gate's wall-clock noise floors (--noise). The deterministic
simulation sweeps need no tolerance: their results JSON is compared with
the checked-in baselines byte for byte, which implies every metric here.

Direction awareness: throughput-class metrics (total_mbps, goodput_mbps,
jain) must not DROP; latency-class metrics (round_s.*, duration_s) must
not RISE. Improvements never fail the gate.

Usage:
  bench_compare.py BASELINE.json FRESH.json [--noise FILE]
                   [--max-regression 0.05] [--inject-slowdown F] [-v]
  bench_compare.py --self-test

--inject-slowdown F degrades the fresh metrics by factor F *after* loading
— latency multiplied, throughput divided — to prove the gate trips on a
slowdown (F = 1.10 is a 10% one). It exists to test the gate, not to tune
it.

Exit codes: 0 = no regression, 1 = regression (or structural mismatch),
2 = usage error / unreadable input. Self-test: 0 = all checks pass.
"""

import argparse
import json
import math
import sys

SCHEMA = "nplus-bench-v1"

# Metric -> direction. "higher": a drop is a regression. "lower": a rise is.
METRICS = {
    "total_mbps": "higher",
    "goodput_mbps": "higher",
    "jain": "higher",
    "duration_s": "lower",
    "round_s.mean": "lower",
    "round_s.p50": "lower",
    "round_s.p95": "lower",
    "round_s.p99": "lower",
    "round_s.max": "lower",
}

# Built-in noise floors; a --noise spec overrides them per metric.
# "rel" widens the relative gate for that metric; "abs" ignores absolute
# differences below it (a 1e-9 s jitter on a microsecond percentile is not
# a regression worth failing CI over).
DEFAULT_NOISE = {metric: {"rel": 0.0, "abs": 1e-12} for metric in METRICS}


def die(msg):
    print(f"bench_compare: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        die(f"cannot load {path}: {e}")
    if doc.get("schema") != SCHEMA:
        die(f"{path}: schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    return doc


def session_metrics(session):
    """Flat {metric: value} for one session entry; None values dropped."""
    out = {}
    for key in ("total_mbps", "goodput_mbps", "jain", "duration_s"):
        out[key] = session.get(key)
    for key in ("mean", "p50", "p95", "p99", "max"):
        out[f"round_s.{key}"] = session.get("round_s", {}).get(key)
    return {k: v for k, v in out.items() if v is not None}


def point_key(point):
    return (point.get("n_links"), point.get("placement"),
            point.get("fidelity"))


def compare(baseline, fresh, noise, max_regression, inject=1.0,
            verbose=False, out=sys.stdout):
    """Returns a list of failure strings (empty = gate passes)."""
    failures = []
    if baseline.get("name") != fresh.get("name"):
        return [f"name mismatch: baseline {baseline.get('name')!r} vs "
                f"fresh {fresh.get('name')!r}"]
    bpoints = {point_key(p): p for p in baseline.get("points", [])}
    fpoints = {point_key(p): p for p in fresh.get("points", [])}
    if set(bpoints) != set(fpoints):
        return [f"point grid mismatch: baseline {sorted(bpoints)} vs "
                f"fresh {sorted(fpoints)}"]

    checked = 0
    for key in sorted(bpoints, key=str):
        bsess = bpoints[key].get("sessions", [])
        fsess = fpoints[key].get("sessions", [])
        if len(bsess) != len(fsess):
            failures.append(f"point {key}: session count "
                            f"{len(bsess)} vs {len(fsess)}")
            continue
        for i, (b, f) in enumerate(zip(bsess, fsess)):
            bm, fm = session_metrics(b), session_metrics(f)
            for metric, direction in METRICS.items():
                if metric not in bm:
                    continue
                if metric not in fm:
                    failures.append(
                        f"point {key} session {i}: {metric} present in "
                        f"baseline but null/missing in fresh run")
                    continue
                bv, fv = bm[metric], fm[metric]
                if not (math.isfinite(bv) and math.isfinite(fv)):
                    failures.append(f"point {key} session {i}: {metric} "
                                    f"is non-finite ({bv} vs {fv})")
                    continue
                if direction == "lower":
                    fv = fv * inject
                else:
                    fv = fv / inject
                checked += 1
                floor = noise.get(metric, {"rel": 0.0, "abs": 0.0})
                if abs(fv - bv) <= floor.get("abs", 0.0):
                    continue
                if bv == 0:
                    # Zero baseline: any worsening from exactly 0 is real.
                    worse = fv > 0 if direction == "lower" else fv < 0
                    rel = math.inf if worse else 0.0
                else:
                    rel = ((fv - bv) / abs(bv) if direction == "lower"
                           else (bv - fv) / abs(bv))
                gate = max(max_regression, floor.get("rel", 0.0))
                if verbose:
                    print(f"  {key} s{i} {metric}: {bv:g} -> {fv:g} "
                          f"({rel:+.2%} vs gate {gate:.2%})", file=out)
                if rel > gate:
                    failures.append(
                        f"point {key} session {i}: {metric} regressed "
                        f"{rel:.1%} ({bv:g} -> {fv:g}, gate {gate:.1%})")
    if checked == 0:
        failures.append("no comparable metrics found (empty sweep?)")
    return failures


def self_test():
    """The gate's own regression test: it must trip on real slowdowns and
    stay quiet on clean/improved/within-noise runs."""
    def doc(mbps, p95, jain=0.9):
        return {
            "schema": SCHEMA, "name": "t",
            "points": [{
                "n_links": 3, "placement": "uniform",
                "fidelity": "abstracted",
                "sessions": [{
                    "total_mbps": mbps, "goodput_mbps": mbps,
                    "jain": jain, "duration_s": 1.0,
                    "round_s": {"mean": p95 * 0.8, "p50": p95 * 0.7,
                                "p95": p95, "p99": p95 * 1.1,
                                "max": p95 * 1.2},
                }],
            }],
        }

    base = doc(100.0, 0.010)
    checks = [
        ("identical run passes",
         compare(base, doc(100.0, 0.010), DEFAULT_NOISE, 0.05) == []),
        ("10% throughput drop fails",
         compare(base, doc(90.0, 0.010), DEFAULT_NOISE, 0.05) != []),
        ("10% latency rise fails",
         compare(base, doc(100.0, 0.011), DEFAULT_NOISE, 0.05) != []),
        ("injected 10% slowdown fails a clean run",
         compare(base, doc(100.0, 0.010), DEFAULT_NOISE, 0.05,
                 inject=1.10) != []),
        ("improvement passes",
         compare(base, doc(120.0, 0.008), DEFAULT_NOISE, 0.05) == []),
        ("4% drift passes the 5% gate",
         compare(base, doc(96.1, 0.010), DEFAULT_NOISE, 0.05) == []),
        ("drift within a per-metric rel floor passes",
         compare(base, doc(92.0, 0.010),
                 {**DEFAULT_NOISE, "total_mbps": {"rel": 0.10, "abs": 0.0},
                  "goodput_mbps": {"rel": 0.10, "abs": 0.0}}, 0.05) == []),
        ("tiny absolute jitter below the abs floor passes",
         compare(base, doc(100.0, 0.010 + 1e-13), DEFAULT_NOISE, 0.0) == []),
        ("grid mismatch fails",
         compare(base, {**doc(100.0, 0.010), "points": []},
                 DEFAULT_NOISE, 0.05) != []),
        ("metric gone null in fresh run fails",
         compare(base, json.loads(json.dumps(doc(100.0, 0.010)).replace(
             '"p95": 0.01,', '')), DEFAULT_NOISE, 0.05) != []),
    ]
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    if failed:
        print(f"self-test: {len(failed)} check(s) failed", file=sys.stderr)
        return 1
    print(f"self-test: all {len(checks)} checks passed")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="nplus-bench perf-regression gate")
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("fresh", nargs="?")
    ap.add_argument("--noise", help="per-metric noise-floor JSON")
    ap.add_argument("--max-regression", type=float, default=0.05,
                    help="relative regression gate (default 0.05 = 5%%)")
    ap.add_argument("--inject-slowdown", type=float, default=1.0,
                    metavar="F", help="degrade fresh metrics by factor "
                    "F before comparing (proves the gate trips)")
    ap.add_argument("--self-test", action="store_true",
                    help="run the gate's embedded regression checks")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        sys.exit(self_test())
    if not args.baseline or not args.fresh:
        ap.error("BASELINE and FRESH are required (or use --self-test)")
    if args.inject_slowdown <= 0:
        die("--inject-slowdown must be > 0")

    noise = dict(DEFAULT_NOISE)
    noise_path = args.noise
    if noise_path:
        try:
            with open(noise_path, "r", encoding="utf-8") as f:
                spec = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            die(f"cannot load noise spec {noise_path}: {e}")
        for metric, floors in spec.items():
            if metric.startswith("_"):
                continue  # comment keys
            if metric not in METRICS:
                die(f"noise spec {noise_path}: unknown metric {metric!r}")
            noise[metric] = {"rel": float(floors.get("rel", 0.0)),
                             "abs": float(floors.get("abs", 0.0))}

    baseline = load(args.baseline)
    fresh = load(args.fresh)
    failures = compare(baseline, fresh, noise, args.max_regression,
                       inject=args.inject_slowdown, verbose=args.verbose)
    if failures:
        print(f"bench_compare: {len(failures)} regression(s) vs "
              f"{args.baseline}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        sys.exit(1)
    print(f"bench_compare: {args.fresh} matches {args.baseline} "
          f"within the gate")


if __name__ == "__main__":
    main()
