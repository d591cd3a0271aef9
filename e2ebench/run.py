#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
                            [--smoke] [--record]

Run from the repository root. The first call configures and builds
e2ebench/ (the wfserverless library plus the benchmark binary) under
.bench_build/; later calls rebuild incrementally. Build output goes to
stderr, so the last line of stdout is the binary's JSON result.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("paper-campaign", "coarse-5k", "document-20k", "tenant-traffic")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("e2ebench: no library sources next to the benchmark (expected src/)")
    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "e2ebench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "e2ebench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("e2ebench: build failed: " + " ".join(step))
    return build_dir / "e2ebench"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes")
    parser.add_argument("--record", action="store_true",
                        help="print reference rows for this seed instead of measuring")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    binary = build()
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference-dir", str(BENCH_DIR / "reference")]
    if args.smoke:
        command.append("--smoke")
    if args.record:
        command.append("--record")
    run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)
    if args.record:
        return
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("e2ebench: the benchmark binary printed no JSON result")
    if set(result) != RESULT_KEYS:
        sys.exit("e2ebench: malformed JSON result")


if __name__ == "__main__":
    main()
