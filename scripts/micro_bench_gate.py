#!/usr/bin/env python3
"""Run micro_kernels and convert it to canonical `nplus-bench-v1` JSON.

The PR-9 perf gate (scripts/bench_compare.py) speaks one schema. This
adapter runs the google-benchmark suite with a config-driven filter and
emits a gate-compatible document, so the kernel microbenches sit behind
the same direction-aware comparison as the end-to-end sweeps:

  - one point per benchmark, `placement` = benchmark name, with
    `duration_s` = seconds per iteration (latency class: must not rise);
  - derived speedup points (`total_mbps` slot, throughput class: must not
    drop), each the ratio of two benchmarks from the SAME process run, so
    machine speed cancels and the signal survives a noisy 1-core runner:
      rx_chain_speedup = scalar seed RX chain / SIMD batched RX chain
  - a hard floor (`min_speedup`, 3.0 in micro_kernels.cfg) on
    rx_chain_speedup, enforced independently of any baseline. The floor
    leaves headroom for wall-clock jitter below the ~4x measured ratio.

Config format (bench/configs/micro_kernels.cfg): `key = value` lines,
`#` comments. Keys: name, filter, min_time, repetitions, speedup.<label>
= NUMERATOR_BM / DENOMINATOR_BM, min_speedup. A config that sets
min_speedup must also define speedup.rx_chain_speedup, the only ratio the
floor applies to; otherwise the floor would silently gate nothing, so the
adapter rejects it as a config error.

With repetitions > 1 the adapter keeps the MINIMUM time per benchmark
across repetitions — the standard robust estimator for wall-clock
timing: transient background load can only inflate a measurement, never
deflate it, so the min of several windows is the closest observable to
the true cost on a shared runner.

Usage:
  micro_bench_gate.py MICRO_BIN --config FILE.cfg --out FILE.json
  micro_bench_gate.py --convert RAW.json --config FILE.cfg --out FILE.json

--convert skips running the binary and adapts an existing
google-benchmark JSON file (used to re-derive a baseline from a recorded
--benchmark_out dump without re-benchmarking).

Exit codes: 0 ok, 1 speedup floor violated or benchmark run failed,
2 usage or config error.
"""

import argparse
import json
import subprocess
import sys

TIME_UNIT_S = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
# The derived ratio that min_speedup applies to.
FLOOR_LABEL = "rx_chain_speedup"


def die(msg):
    print(f"micro_bench_gate: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_config(path):
    cfg = {"name": "micro_kernels", "filter": ".", "min_time": "",
           "repetitions": 1, "speedups": [], "min_speedup": None}
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        die(f"cannot read config {path}: {e}")
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            die(f"{path}:{ln}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in ("name", "filter", "min_time"):
            cfg[key] = value
        elif key == "repetitions":
            cfg[key] = int(value)
        elif key == "min_speedup":
            cfg[key] = float(value)
        elif key.startswith("speedup."):
            label = key.split(".", 1)[1]
            if "/" not in value:
                die(f"{path}:{ln}: speedup value must be 'NUM_BM / DEN_BM'")
            num, den = (s.strip() for s in value.split("/", 1))
            cfg["speedups"].append((label, num, den))
        else:
            die(f"{path}:{ln}: unknown key {key!r}")
    if cfg["min_speedup"] is not None and not any(
            label == FLOOR_LABEL for label, _, _ in cfg["speedups"]):
        die(f"{path}: min_speedup is set but no speedup.{FLOOR_LABEL} line "
            f"defines the ratio it applies to")
    return cfg


def run_suite(micro_bin, cfg):
    cmd = [micro_bin, "--benchmark_format=json",
           f"--benchmark_filter={cfg['filter']}"]
    if cfg["min_time"]:
        cmd.append(f"--benchmark_min_time={cfg['min_time']}")
    if cfg["repetitions"] > 1:
        cmd.append(f"--benchmark_repetitions={cfg['repetitions']}")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"micro_bench_gate: {' '.join(cmd)} exited "
              f"{proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        sys.exit(1)
    return json.loads(proc.stdout)


def seconds_per_iter(raw):
    """{benchmark name: seconds/iteration} from google-benchmark JSON.

    With repetitions, the name of each repetition row is the run_name and
    the min across repetitions is kept (load inflates, never deflates).
    """
    out = {}
    for b in raw.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # aggregate rows (mean/median/stddev) when repeated
        unit = TIME_UNIT_S.get(b.get("time_unit", "ns"))
        if unit is None:
            die(f"unknown time_unit {b.get('time_unit')!r} "
                f"for {b.get('name')}")
        name = b.get("run_name", b["name"])
        t = b["real_time"] * unit
        out[name] = min(out.get(name, t), t)
    return out


def build_doc(cfg, times):
    points = []
    for name in sorted(times):
        points.append({"n_links": 0, "placement": name, "fidelity": "micro",
                       "sessions": [{"duration_s": times[name]}]})
    floor_failures = []
    for label, num, den in cfg["speedups"]:
        missing = [b for b in (num, den) if b not in times]
        if missing:
            die(f"speedup '{label}': benchmark(s) not in run: "
                f"{', '.join(missing)} (filter too narrow?)")
        ratio = times[num] / times[den]
        points.append({"n_links": 0, "placement": label,
                       "fidelity": "derived",
                       "sessions": [{"total_mbps": ratio}]})
        if (label == FLOOR_LABEL and cfg["min_speedup"] is not None
                and ratio < cfg["min_speedup"]):
            floor_failures.append(
                f"{label} = {ratio:.2f}x, below the hard floor "
                f"{cfg['min_speedup']:.2f}x ({num} {times[num] * 1e6:.3f}us"
                f" / {den} {times[den] * 1e6:.3f}us)")
    doc = {"schema": "nplus-bench-v1", "name": cfg["name"],
           "scheme": "micro", "complete": True, "points": points}
    return doc, floor_failures


def main():
    ap = argparse.ArgumentParser(
        description="micro_kernels -> nplus-bench-v1 adapter + speedup "
                    "floor (see module docstring)")
    ap.add_argument("micro_bin", nargs="?")
    ap.add_argument("--convert", metavar="RAW_JSON",
                    help="adapt an existing google-benchmark JSON instead "
                         "of running the binary")
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    cfg = parse_config(args.config)
    if args.convert:
        try:
            with open(args.convert, "r", encoding="utf-8") as f:
                raw = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            die(f"cannot load {args.convert}: {e}")
    elif args.micro_bin:
        raw = run_suite(args.micro_bin, cfg)
    else:
        ap.error("MICRO_BIN or --convert RAW.json is required")

    times = seconds_per_iter(raw)
    if not times:
        die("no iteration rows in benchmark output")
    doc, floor_failures = build_doc(cfg, times)
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")

    for p in doc["points"]:
        s = p["sessions"][0]
        if "total_mbps" in s:
            print(f"  {p['placement']}: {s['total_mbps']:.2f}x")
        else:
            print(f"  {p['placement']}: {s['duration_s'] * 1e6:.3f} us/iter")
    if floor_failures:
        for msg in floor_failures:
            print(f"micro_bench_gate: {msg}", file=sys.stderr)
        return 1
    print(f"micro_bench_gate: wrote {args.out} "
          f"({len(doc['points'])} points)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
