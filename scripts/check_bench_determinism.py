#!/usr/bin/env python3
"""Prove an nplus-bench scenario is thread-count invariant, byte for byte.

Runs the same config at several --threads values and requires the results
JSON *and* the merged trace file to be bit-identical across all of them.
This is the telemetry layer's contract: worker ids are logical sweep-item
indices (not OS threads), the merge is keyed on (worker, seq), and the
JSON embeds the trace CRC — so one byte-compare pins both the simulated
metrics and the event stream. On success the first run's outputs are kept
at --out/--trace for downstream consumers (the perf gate fixture).

Usage:
  check_bench_determinism.py BENCH_BIN CONFIG --out FILE.json
      [--trace FILE.nptr] [--threads 1 2 4]

Exit 0 when all runs match; 1 on any divergence or bench failure.
"""

import argparse
import os
import subprocess
import sys


def run_bench(cmd):
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        print(f"check_bench_determinism: {' '.join(cmd)} exited "
              f"{proc.returncode}", file=sys.stderr)
        return False
    return True


def read_outputs(out, trace):
    with open(out, "rb") as f:
        jbytes = f.read()
    tbytes = b""
    if trace:
        with open(trace, "rb") as f:
            tbytes = f.read()
    return jbytes, tbytes


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("bench_bin")
    ap.add_argument("config")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default="")
    ap.add_argument("--threads", type=int, nargs="+", default=[1, 2, 4])
    args = ap.parse_args()

    runs = []  # (label, json_bytes, trace_bytes)
    for n in args.threads:
        out = f"{args.out}.t{n}"
        trace = f"{args.trace}.t{n}" if args.trace else ""
        cmd = [args.bench_bin, args.config, "--out", out, "--threads",
               str(n)]
        if trace:
            cmd += ["--trace", trace]
        if not run_bench(cmd):
            return 1
        jbytes, tbytes = read_outputs(out, trace)
        runs.append((f"--threads {n}", jbytes, tbytes))

    ok = True
    ref_label, ref_j, ref_t = runs[0]
    for label, jbytes, tbytes in runs[1:]:
        if jbytes != ref_j:
            print(f"check_bench_determinism: results JSON differs between "
                  f"{ref_label} and {label}", file=sys.stderr)
            ok = False
        if tbytes != ref_t:
            print(f"check_bench_determinism: trace file differs between "
                  f"{ref_label} and {label}", file=sys.stderr)
            ok = False
    if not ok:
        return 1

    os.replace(f"{args.out}.t{args.threads[0]}", args.out)
    if args.trace:
        os.replace(f"{args.trace}.t{args.threads[0]}", args.trace)
    for n in args.threads[1:]:
        os.remove(f"{args.out}.t{n}")
        if args.trace:
            os.remove(f"{args.trace}.t{n}")
    variants = "/".join(label for label, _, _ in runs)
    print(f"check_bench_determinism: {os.path.basename(args.config)} "
          f"byte-identical across {variants} "
          f"({len(ref_j)} JSON bytes, {len(ref_t)} trace bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
