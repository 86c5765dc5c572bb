#!/usr/bin/env python3
"""Build and run the SpeedLLM benchmark.

One run (the benchmark contract):

    python3 perfbench/run.py --workload chat_open --seed 1 --seconds 20 --trace 0

builds `perfbench/` in release mode (into $CARGO_TARGET_DIR, default
`.bench_build/`), runs one workload and passes its output through; the last
line of standard output is the JSON result.

Steadiness mode:

    python3 perfbench/run.py --steady [--runs 10] [--workloads a,b] [--seed-base 100]

runs each workload `--runs` times with consecutive seeds and prints, for
every end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) against the bound that
BENCHMARK.json fixes for it. A spread above a third of the bound is flagged.

Run from the root of the repository.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit(f"error: building the benchmark failed ({r.returncode})")
    return os.path.join(target_dir(), "release", "speedllm-perfbench")


def git_rev():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(binary, workload, seed, seconds, trace, capture):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", os.path.join(HERE, "out")]
    env = dict(os.environ, PERFBENCH_GIT_REV=git_rev())
    return subprocess.run(cmd, cwd=ROOT, env=env, text=True,
                          stdout=subprocess.PIPE if capture else None)


def steady(args, binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    worst = 0.0
    for w in names:
        values = {}
        for i in range(args.runs):
            seed = args.seed_base + i
            r = run_once(binary, w, seed, seconds, 0, capture=True)
            last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else "{}"
            res = json.loads(last)
            if r.returncode != 0 or not res.get("correct"):
                print(f"{w} seed {seed}: run failed or incorrect: {last}")
                continue
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        print(f"\n{w}: {args.runs} runs, seeds {args.seed_base}..{args.seed_base + args.runs - 1}")
        print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for k, vs in values.items():
            if len(vs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(k, float("nan"))
            flag = "" if k == "setup_s" or spread <= bound / 3 else "  <-- above bound/3"
            if k != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {k:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.4f} {bound:>6}{flag}")
        print(flush=True)
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads")
    p.add_argument("--seed-base", type=int, default=100)
    args = p.parse_args()
    if not args.steady and not args.workload:
        p.error("--workload is required")
    binary = build()
    if args.steady:
        steady(args, binary)
        return 0
    r = run_once(binary, args.workload, args.seed, args.seconds or 10, args.trace, capture=False)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
