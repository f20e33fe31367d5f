#!/usr/bin/env python3
"""A/B runner: compare the benchmark on a base commit against this tree.

    python3 perfbench/ab.py <base-rev> [--workloads llm-serve,queue-storm]
                            [--pairs 10] [--seconds S] [--trace 0]

Builds <base-rev> in a git worktree under .bench_build/ab/, copies this
tree's perfbench/ and BENCHMARK.json into it (both sides run identical
benchmark code), then runs --pairs pairs per workload, alternating which
side goes first; pair i runs seed i (from 1) on both sides. For every
workload and metric it prints each side's median and quartiles, the ratio
change/base, and the pairs the change won, with a verdict:

  better / worse  the change wins / loses at least 9 of 10 pairs (ties
                  count for neither; at least 10 pairs run) and the
                  medians differ by more than the base's own quartile
                  spread;
  unresolved      either side's quartile spread exceeds the metric's bound,
                  unless every run of one side beats every run of the other;
  same            otherwise (the median ratio is within the bound);
  REGRESSION      the change's median is worse than the base's by more
                  than the bound.

A pair whose simulated-output fingerprints differ is flagged as a fidelity
mismatch: a speed-up that changes simulated results is not a perf win.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def make_base_tree(rev):
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    path = os.path.join(ROOT, ".bench_build", "ab", "base-" + sha[:12])
    if os.path.exists(path):
        git("worktree", "remove", "--force", path)
    git("worktree", "add", "--detach", path, sha)
    shutil.copytree(HERE, os.path.join(path, "perfbench"),
                    dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), path)
    return sha, path


def run(tree, workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"benchmark failed in {tree}: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    fp = next((ln.split()[1] for ln in lines
               if ln.startswith("fingerprint ")), None)
    result = json.loads(lines[-1])
    result["fingerprint"] = fp
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def verdict(base, head, better, bound):
    """Pairwise verdict of one metric (lists aligned by pair)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    losses = sum(sign * (h - b) < 0 for b, h in zip(base, head))
    n = len(base)
    mb, mh = statistics.median(base), statistics.median(head)
    bq1, bq3, bspread = spread(base)
    hspread = spread(head)[2]
    worse_by = sign * (mb - mh) / mb if mb else 0.0
    # Every change run better (worse) than every base run.
    if better == "higher":
        all_better, all_worse = min(head) > max(base), max(head) < min(base)
    else:
        all_better, all_worse = max(head) < min(base), min(head) > max(base)
    if bound is not None and worse_by > bound:
        label = "REGRESSION"
    elif bound is not None and max(bspread, hspread) > bound \
            and not (all_better or all_worse):
        label = "unresolved"
    elif n < 10 and max(wins, losses) >= 0.9 * n:
        label = "too few pairs to claim"
    elif wins >= 0.9 * n and abs(mh - mb) > bq3 - bq1:
        label = "better"
    elif losses >= 0.9 * n and abs(mh - mb) > bq3 - bq1:
        label = "worse"
    else:
        label = "same"
    return wins, label


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", help="base revision (e.g. HEAD~1)")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: BENCHMARK.json's)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.pairs < 2:
        raise SystemExit("--pairs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads \
        else [w["name"] for w in bench["workloads"]]
    spec = {m["name"]: m for m in
            bench["per_layer" if args.trace else "end_to_end"]}

    sha, base_tree = make_base_tree(args.base)
    print(f"base {sha[:12]} ({base_tree}) vs change {ROOT}; "
          f"{args.pairs} pairs x {seconds} s, trace {args.trace}")
    try:
        for workload in workloads:
            sides = {"base": [], "change": []}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 \
                    else ("change", "base")
                for side in order:
                    tree = base_tree if side == "base" else ROOT
                    sides[side].append(run(tree, workload, i + 1,
                                           seconds, args.trace))
            report(workload, sides, spec)
    finally:
        git("worktree", "remove", "--force", base_tree)


def report(workload, sides, spec):
    print(f"\n== {workload}")
    for i, (b, h) in enumerate(zip(sides["base"], sides["change"])):
        if b["fingerprint"] != h["fingerprint"]:
            print(f"FIDELITY MISMATCH in pair {i}: simulated outputs "
                  "differ between base and change")
        for side, r in (("base", b), ("change", h)):
            if not r["correct"]:
                print(f"pair {i} {side}: {r['failed']} of "
                      f"{r['attempted']} operations failed")
    print(f"{'metric':40s} {'base median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'ratio':>7s} wins  verdict")
    for name, m in spec.items():
        base = [r["metrics"][name]["value"] for r in sides["base"]]
        head = [r["metrics"][name]["value"] for r in sides["change"]]
        bq1, bq3, _ = spread(base)
        hq1, hq3, _ = spread(head)
        mb, mh = statistics.median(base), statistics.median(head)
        wins, label = verdict(base, head, m["better"], m.get("bound"))
        ratio = mh / mb if mb else float("nan")
        print(f"{name:40s} {mb:12.6g} [{bq1:9.4g}, {bq3:9.4g}] "
              f"{mh:12.6g} [{hq1:9.4g}, {hq3:9.4g}] {ratio:7.4f} "
              f"{wins:2d}/{len(base)} {label} (base {mb:.6g})")


if __name__ == "__main__":
    main()
