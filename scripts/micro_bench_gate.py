#!/usr/bin/env python3
"""Same-host timing gate for the RX-chain slice of micro_kernels.

The slice times the paper's per-subcarrier projection and equalization
(§4, "Complexity") three ways: the seed scalar chain (`_Baseline`), the
workspace chain and the SoA batch chain (`_SimdBatch`). The gate runs
PAIRS alternating pairs of the child and parent builds on one host (the
side that runs first swaps every pair), keeps the minimum of REPETITIONS
timing windows per benchmark and run, and checks two things:

  - floor: the median over child runs of Baseline / SimdBatch, each a
    ratio of two benchmarks from one process run, is at least FLOOR;
  - no slowdown: a benchmark regresses when the child is slower in at
    least 9 of 10 pairs AND its median exceeds the parent's median by
    more than the parent's interquartile range.

Both sides run on the same host, so no timing recorded elsewhere enters
the verdict. The parent's median speedup is printed beside the child's:
a floor failure the parent shares points at the host, not the change.

Usage:
  micro_bench_gate.py CHILD_BIN PARENT_BIN
  micro_bench_gate.py --self-test

Exit codes: 0 pass, 1 floor or slowdown, 2 a run the gate cannot judge
(a binary that fails, a benchmark that errored, or a benchmark of the
slice missing on either side).
"""

import argparse
import io
import json
import statistics
import subprocess
import sys

FILTER = "RxChainSubcarrier"
SEED = "BM_RxChainSubcarrier_Baseline"
BATCH = "BM_RxChainSubcarrier_SimdBatch"
REPETITIONS = 3
PAIRS = 10
FLOOR = 3.0
TIME_UNIT_S = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}


class GateError(Exception):
    """A run the gate cannot judge (exit 2)."""


def seconds_per_iter(doc):
    """{benchmark: s/iteration} from google-benchmark JSON, the minimum
    over repetitions: load can only inflate a timing window."""
    out = {}
    for b in doc.get("benchmarks", []):
        name = b.get("run_name", b.get("name"))
        if b.get("error_occurred"):
            raise GateError(f"{name} errored: {b.get('error_message', '')}")
        if b.get("run_type", "iteration") != "iteration":
            continue  # mean/median/stddev rows of a repeated run
        unit = TIME_UNIT_S.get(b.get("time_unit", "ns"))
        if unit is None:
            raise GateError(f"{name}: unknown time_unit {b['time_unit']!r}")
        t = b["real_time"] * unit
        out[name] = min(out.get(name, t), t)
    return out


def run_slice(binary):
    cmd = [binary, "--benchmark_format=json",
           f"--benchmark_filter={FILTER}",
           f"--benchmark_repetitions={REPETITIONS}"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as e:
        raise GateError(f"cannot run {binary}: {e}") from e
    if proc.returncode != 0:
        raise GateError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                        f"{proc.stderr}")
    try:
        return seconds_per_iter(json.loads(proc.stdout))
    except json.JSONDecodeError as e:
        raise GateError(f"{binary}: unreadable benchmark JSON: {e}") from e


def iqr(xs):
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q3 - q1


def judge(child_runs, parent_runs, out=sys.stdout):
    """Pair i is (child_runs[i], parent_runs[i]), each {benchmark: s/iter}.
    Returns [(kind, message)] with kind "floor" or "slowdown"; raises
    GateError when a benchmark of the slice is missing from any run."""
    names = {SEED, BATCH}.union(*child_runs, *parent_runs)
    for side, runs in (("child", child_runs), ("parent", parent_runs)):
        for i, run in enumerate(runs):
            missing = sorted(names - set(run))
            if missing:
                raise GateError(f"{side} run {i + 1} lacks "
                                f"{', '.join(missing)}")
    failures = []
    ratios = [run[SEED] / run[BATCH] for run in child_runs]
    ratio = statistics.median(ratios)
    parent_ratio = statistics.median(run[SEED] / run[BATCH]
                                     for run in parent_runs)
    print(f"  {SEED} / {BATCH}: child median {ratio:.2f}x "
          f"(runs {min(ratios):.2f}-{max(ratios):.2f}x), parent median "
          f"{parent_ratio:.2f}x, floor {FLOOR:.1f}x", file=out)
    if ratio < FLOOR:
        failures.append(("floor", f"median speedup {ratio:.2f}x is below "
                                  f"the {FLOOR:.1f}x floor"))
    for name in sorted(names):
        child = [run[name] for run in child_runs]
        parent = [run[name] for run in parent_runs]
        slower = sum(c > p for c, p in zip(child, parent))
        rise = statistics.median(child) - statistics.median(parent)
        spread = iqr(parent)
        print(f"  {name}: child {statistics.median(child) * 1e6:.3f} us, "
              f"parent {statistics.median(parent) * 1e6:.3f} us "
              f"(IQR {spread * 1e6:.3f} us), child slower in "
              f"{slower}/{len(child)} pairs", file=out)
        if 10 * slower >= 9 * len(child) and rise > spread:
            failures.append(("slowdown", f"{name} is slower in {slower} of "
                             f"{len(child)} pairs and its median rose "
                             f"{rise * 1e6:.3f} us, more than the parent's "
                             f"IQR of {spread * 1e6:.3f} us"))
    return failures


def self_test():
    """The gate must trip on a low floor, a real slowdown and a broken run,
    and stay quiet on identical runs, an improvement and noise."""
    # Per-pair timing jitter: a 2% spread around 1 (parent IQR 2.5%).
    jitter = [0.99, 1.01, 0.98, 1.02, 1.00, 0.99, 1.01, 1.00, 0.98, 1.02]

    def doc(seed_us, batch_us, drop=None, error=None):
        rows = []
        for name, us in ((SEED, seed_us),
                         ("BM_RxChainSubcarrier_Workspace", 1.4 * batch_us),
                         (BATCH, batch_us)):
            if name == drop:
                continue
            for rep in range(REPETITIONS):
                rows.append({"name": name, "run_name": name,
                             "run_type": "iteration",
                             "real_time": us * (1 + 0.01 * rep),
                             "time_unit": "us"})
            rows.append({"name": f"{name}_median", "run_name": name,
                         "run_type": "aggregate", "real_time": us,
                         "time_unit": "us"})
        if error:
            rows[0].update(error_occurred=True, error_message=error)
        return {"benchmarks": rows}

    def runs(speedup=4.0, scale=1.0, **kw):
        """PAIRS runs; `scale` is one factor or a list of one per pair."""
        scales = scale if isinstance(scale, list) else [scale] * PAIRS
        return [seconds_per_iter(doc(2.5 * speedup * j * s, 2.5 * j * s,
                                     **kw))
                for j, s in zip(jitter, scales)]

    def outcome(child_kw, parent_kw):
        try:
            failures = judge(runs(**child_kw), runs(**parent_kw),
                             out=io.StringIO())
        except GateError:
            return "error"
        return "+".join(sorted({kind for kind, _ in failures})) or "pass"

    checks = [
        ("identical runs pass", {}, {}, "pass"),
        ("an improvement passes", {"scale": 0.8}, {}, "pass"),
        ("noise inside the parent's IQR passes", {"scale": 1.01}, {},
         "pass"),
        ("a large slowdown in only 8 of 10 pairs passes",
         {"scale": [1.5] * 8 + [0.9] * 2}, {}, "pass"),
        ("a 2.9x floor trips", {"speedup": 2.9}, {"speedup": 2.9}, "floor"),
        ("a 10% child slowdown with a 2% spread trips", {"scale": 1.10}, {},
         "slowdown"),
        ("SimdBatch missing from the child is an error", {"drop": BATCH}, {},
         "error"),
        ("a benchmark missing from the parent is an error", {},
         {"drop": "BM_RxChainSubcarrier_Workspace"}, "error"),
        ("a benchmark that errored is an error", {"error": "boom"}, {},
         "error"),
    ]
    failed = 0
    for name, child_kw, parent_kw, want in checks:
        got = outcome(child_kw, parent_kw)
        ok = got == want
        failed += not ok
        print(f"  [{'ok' if ok else 'FAIL'}] {name}"
              + ("" if ok else f" (got {got}, want {want})"))
    if failed:
        print(f"self-test: {failed} check(s) failed", file=sys.stderr)
        return 1
    print(f"self-test: all {len(checks)} checks passed")
    return 0


def main():
    ap = argparse.ArgumentParser(
        description="paired same-host timing gate for micro_kernels' "
                    "RX-chain slice (see module docstring)")
    ap.add_argument("child_bin", nargs="?")
    ap.add_argument("parent_bin", nargs="?")
    ap.add_argument("--self-test", action="store_true",
                    help="run the gate's canned pass/trip checks")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.child_bin or not args.parent_bin:
        ap.error("CHILD_BIN and PARENT_BIN are required (or --self-test)")

    child_runs, parent_runs = [], []
    try:
        for i in range(PAIRS):
            sides = [(args.child_bin, child_runs),
                     (args.parent_bin, parent_runs)]
            for binary, runs in sides[::-1] if i % 2 else sides:
                runs.append(run_slice(binary))
        failures = judge(child_runs, parent_runs)
    except GateError as e:
        print(f"micro_bench_gate: {e}", file=sys.stderr)
        return 2
    for _, msg in failures:
        print(f"micro_bench_gate: {msg}", file=sys.stderr)
    if failures:
        return 1
    print(f"micro_bench_gate: pass ({PAIRS} pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
