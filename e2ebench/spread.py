#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 e2ebench/spread.py [--workloads A,B] [--seeds 1-10] [--seconds S]
                               [--trace 0|1]

Runs e2ebench/run.py once per (workload, seed) and prints, per metric, the
median over the runs and the spread: the distance between the first and
third quartile (statistics.quantiles(values, n=4)) as a share of the
median. Spreads are compared with each metric's bound in BENCHMARK.json.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verbose", action="store_true", help="print every run's value")
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    failed = False
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            failed |= out.returncode != 0 or not result["correct"]
            runs.append(result)
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)} "
              "checks failed")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else float("nan")
            bound = bounds.get(name)
            note = "" if bound is None else f"  bound {bound}  {spread / bound:.2f} of bound"
            print(f"  {name:28s} median {mid:<14.6g} spread {spread:.4f}{note}")
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in values))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
