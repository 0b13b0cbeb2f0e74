#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and summarizes each metric.

One checkout (spread check):

    python3 perfbench/repeat.py --seeds 1-10 --workloads steady_design,mc_batch

Two checkouts (parent/change pair; runs alternate which side goes first):

    python3 perfbench/repeat.py --seeds 1-10 --checkout ../parent --checkout .

For each workload and metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median, and,
for a pair, the change of the second median against the first and the share
of pairs the second side won. Each run's last JSON line is appended to
--log as one record, so nothing measured is lost.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{checkout}: {workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--checkout", action="append", type=Path,
                    help="checkout root; give two for a parent/change pair (default: .)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--log", type=Path, help="append every run's result here (JSON lines)")
    args = ap.parse_args()

    checkouts = [c.resolve() for c in (args.checkout or [Path(".")])]
    if len(checkouts) > 2:
        sys.exit("give one or two checkouts")
    spec = json.loads((checkouts[-1] / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    seeds = parse_seeds(args.seeds)

    for workload in workloads:
        runs = [[] for _ in checkouts]
        for i, seed in enumerate(seeds):
            order = list(range(len(checkouts)))
            if i % 2:
                order.reverse()
            for side in order:
                res = run_once(checkouts[side], spec, workload, seed, args.trace)
                runs[side].append(res)
                if args.log:
                    with args.log.open("a") as f:
                        f.write(json.dumps({"checkout": str(checkouts[side]), "workload": workload,
                                            "seed": seed, "result": res}) + "\n")
        print(f"== {workload}: {len(seeds)} seeds")
        for side, rs in enumerate(runs):
            bad = [r for r in rs if not r["correct"]]
            print(f"  side {side}: failed/attempted "
                  f"{sum(r['failed'] for r in rs)}/{sum(r['attempted'] for r in rs)}, "
                  f"{len(bad)} runs not correct")
        for m in metrics:
            name = m["name"]
            cols = [[r["metrics"][name]["value"] for r in rs] for rs in runs]
            line = f"  {name:<34}"
            for vals in cols:
                med, q1, q3, spread = summary(vals)
                line += f" median {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] spread {spread:.3f}"
                if "bound" in m:
                    line += f" (bound {m['bound']})"
            if len(cols) == 2:
                a, b = statistics.median(cols[0]), statistics.median(cols[1])
                sign = 1 if m["better"] == "higher" else -1
                wins = sum(sign * (y - x) > 0 for x, y in zip(*cols))
                line += f" | change {(b - a) / a:+.3f}, second side won {wins}/{len(seeds)}"
            print(line)


if __name__ == "__main__":
    main()
