#!/usr/bin/env python3
"""Repository benchmark: build pimbench, run one workload, report metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and builds
perfbench/ (and through it the simulator library) under .bench_build/;
later calls only re-run the incremental build.

A benchmark seed names four inputs (traces, graphs or storm scripts; pimbench
seeds 4*seed .. 4*seed+3), and iteration i runs input i % 4, so a run's
medians average over several inputs instead of resting on one.

--trace 0 repeats the workload, one fresh process per iteration, as long as
another iteration still ends within --seconds (at least one iteration per
input), and reports the end-to-end metrics: medians over the iterations of
host throughput, set-up time and timed-phase CPU, peak RSS, and medians over
the inputs of the simulated model outputs.

--trace 1 re-runs the first input at one sim thread (its outputs must
match), runs the probe ladder, alternates untraced and traced iterations
for the rest of --seconds, and reports the per-layer metrics.

Every iteration's simulated outputs are fingerprinted and compared with
perfbench/fingerprints.json when a fingerprint is recorded for its input;
its invariants are checked for any seed. A broken invariant fails that
iteration's operations; a fingerprint mismatch fails all of them. The last
line of stdout is one JSON object: correct, attempted, failed, metrics.

--record stores the fingerprints of the seed's inputs instead of
measuring, after checking that the first input's outputs at one sim
thread match.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("llm-serve", "graph-ingest", "queue-storm")
# Sim threads, the same for every workload; results are thread-count
# invariant. Half of the 4 cores the benchmark was tuned on: a parallel
# phase waits for its slowest thread, so a pool that needs every core slows
# down whenever anything else on the machine runs, and one thread alone
# moves with the speed of whichever core it sits on.
SIM_THREADS = 2
# A benchmark seed names VARIANTS inputs (pimbench seeds seed*VARIANTS + k);
# iteration i runs input i % VARIANTS, so a run's medians average over
# several traces or graphs instead of resting on one.
VARIANTS = 4
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")

# End-to-end metrics (--trace 0): name -> unit.
E2E_UNITS = {
    "ops_per_host_s": "1/s",
    "setup_s": "s",
    "host_cpu_s": "s",
    "peak_rss_mb": "MB",
    "sim_ops_per_s": "1/s",
    "sim_p99_ms": "ms",
    "sim_makespan_s": "s",
}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(base) or base.startswith(".."):
        base = ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure (once) and build pimbench; returns its path."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "--target", "pimbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("build failed: " + " ".join(cmd))
    return os.path.join(out, "pimbench")


def sample(exe, args, seed, extra):
    """Run one pimbench process on input @seed; returns its JSON report."""
    cmd = [exe, "--workload", args.workload, "--seed", str(seed),
           "--size", args.size] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise SystemExit("pimbench failed: " + " ".join(cmd))
    return json.loads(proc.stdout)


def inputs_of(seed):
    """The pimbench seeds of the VARIANTS inputs a benchmark seed names."""
    return [seed * VARIANTS + k for k in range(VARIANTS)]


def fingerprint(outputs):
    blob = json.dumps(outputs, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_fingerprints(path):
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def median(values):
    return statistics.median(values)


def time_left(start, walls, seconds):
    """True if one more iteration, as long as the median one so far, still
    ends within @seconds of @start."""
    typical = median(walls) if walls else 0.0
    return time.monotonic() - start + typical <= seconds


def first_per_input(iters):
    """The first iteration of each input seed, in input order."""
    first = {}
    for it in iters:
        first.setdefault(it["seed"], it)
    return [first[s] for s in sorted(first)]


def run_untraced(exe, args):
    """Iterations for --seconds, at least one per input; returns
    (iterations, setups)."""
    iters, setups, walls = [], [], []
    threads = ["--threads", str(SIM_THREADS)]
    inputs = inputs_of(args.seed)
    start = time.monotonic()
    while len(iters) < VARIANTS or time_left(start, walls, args.seconds):
        seed = inputs[len(iters) % VARIANTS]
        t_iter = t0 = time.monotonic()
        it = sample(exe, args, seed, threads)
        iter_wall = time.monotonic() - t0
        iters.append(it)
        setups.append(it["setup_s"])
        # Set-up is short next to the timed phase on some workloads:
        # sample it alone as well (up to 16 times, within 2% of the
        # iteration's wall) so its median rests on enough samples.
        spent, last = 0.0, 0.0
        for _ in range(16):
            if spent + last >= 0.02 * iter_wall:
                break
            t0 = time.monotonic()
            setups.append(sample(exe, args, seed,
                                 threads + ["--mode", "setup"])["setup_s"])
            last = time.monotonic() - t0
            spent += last
        walls.append(time.monotonic() - t_iter)
    return iters, setups


def run_traced(exe, args):
    """The 1-thread re-run of the first input, the probes, then
    alternating untraced/traced iterations for the rest of --seconds;
    returns (all iterations, per-layer metrics, the 1-thread iteration)."""
    threads = ["--threads", str(SIM_THREADS)]
    inputs = inputs_of(args.seed)
    plain, traced, walls = [], [], []
    spans = os.path.join(build_dir(),
                         f"spans-{args.workload}-{args.seed}.json")
    start = time.monotonic()
    one = sample(exe, args, inputs[0], ["--threads", "1"])
    probes = sample(exe, args, inputs[0], threads + ["--mode", "probes"])
    while not traced or time_left(start, walls, args.seconds):
        seed = inputs[len(traced) % VARIANTS]
        t0 = time.monotonic()
        plain.append(sample(exe, args, seed, threads))
        extra = ["--trace", "1"]
        if not traced:
            extra += ["--spans-out", spans]
        traced.append(sample(exe, args, seed, threads + extra))
        walls.append(time.monotonic() - t0)

    layers = {}
    for name, m in traced[0]["layers"].items():
        layers[name] = {"value": median([t["layers"][name]["value"]
                                         for t in traced]),
                        "unit": m["unit"]}
    layers["bench.tracing_overhead"] = {
        "value": median([t["wall_s"] for t in traced])
        / median([p["wall_s"] for p in plain]),
        "unit": "ratio"}
    layers.update(probes["layers"])
    log(f"spans of the first traced iteration: {spans}")
    return plain + traced, layers, one


def check(iters, recorded, one_thread):
    """Returns (attempted, failed, fingerprint, state, problems)."""
    problems = []
    attempted = sum(it["ops"] for it in iters)
    failed = 0
    first = {it["seed"]: it["outputs"] for it in first_per_input(iters)}
    for i, it in enumerate(iters):
        bad = list(it["violations"])
        if it["outputs"] != first[it["seed"]]:
            bad.append("simulated outputs differ from an earlier "
                       "iteration of the same input")
        if bad:
            failed += it["ops"]
            problems += [f"iteration {i} (input {it['seed']}): {b}"
                         for b in bad]
    fps = {seed: fingerprint(out) for seed, out in first.items()}
    expected = {seed: recorded.get(str(seed)) for seed in fps}
    mismatched = [s for s, fp in fps.items()
                  if expected[s] is not None and expected[s] != fp]
    for s in mismatched:
        problems.append(f"input {s}: fingerprint {fps[s]} != recorded "
                        f"{expected[s]}")
    if mismatched:
        state = "MISMATCH"
        failed = attempted
    elif all(e is not None for e in expected.values()):
        state = "match"
    else:
        state = "not recorded for this seed"
    if one_thread is not None and one_thread["outputs"] \
            != first.get(one_thread["seed"]):
        problems.append("outputs at 1 sim thread differ from "
                        f"{SIM_THREADS} sim threads")
        failed = attempted
    combined = hashlib.sha256("".join(fps.values()).encode()).hexdigest()
    return attempted, failed, combined, state, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--fingerprints", default=FINGERPRINTS)
    ap.add_argument("--record", action="store_true",
                    help="record this seed's fingerprint, then exit")
    args = ap.parse_args()

    exe = build()
    fps = load_fingerprints(args.fingerprints)
    recorded = fps.get(args.size, {}).get(args.workload, {})

    if args.record:
        for k, seed in enumerate(inputs_of(args.seed)):
            it = sample(exe, args, seed, ["--threads", str(SIM_THREADS)])
            if it["violations"]:
                raise SystemExit(f"not recording input {seed}, invariants "
                                 "broken: " + "; ".join(it["violations"]))
            fp = fingerprint(it["outputs"])
            if k == 0 and fingerprint(sample(exe, args, seed, [
                    "--threads", "1"])["outputs"]) != fp:
                raise SystemExit(f"not recording input {seed}: outputs at "
                                 f"1 sim thread differ from {SIM_THREADS}")
            recorded[str(seed)] = fp
            print(f"recorded {args.size}/{args.workload}/input {seed}: {fp}")
        fps.setdefault(args.size, {})[args.workload] = dict(
            sorted(recorded.items(), key=lambda kv: int(kv[0])))
        with open(args.fingerprints, "w") as f:
            json.dump(fps, f, indent=1, sort_keys=True)
            f.write("\n")
        return

    one_thread = None
    if args.trace:
        iters, metrics, one_thread = run_traced(exe, args)
    else:
        iters, setups = run_untraced(exe, args)
        metrics = {
            "ops_per_host_s": median([it["ops"] / it["timed_s"]
                                      for it in iters]),
            "setup_s": median(setups),
            "host_cpu_s": median([it["cpu_s"] for it in iters]),
            "peak_rss_mb": median([it["peak_rss_mb"] for it in iters]),
        }
        # Simulated metrics: median over the seed's inputs.
        for name in ("sim_ops_per_s", "sim_p99_ms", "sim_makespan_s"):
            metrics[name] = median([it[name]
                                    for it in first_per_input(iters)])
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in metrics.items()}

    attempted, failed, fp, state, problems = check(iters, recorded,
                                                   one_thread)

    inputs = ", ".join(map(str, inputs_of(args.seed)))
    print(f"workload {args.workload}  seed {args.seed} (inputs "
          f"{inputs})  size {args.size}  "
          f"sim threads {SIM_THREADS}  iterations {len(iters)}  "
          f"work unit {iters[0]['ops_unit']}")
    for it in first_per_input(iters):
        for name, m in it["model"].items():
            print(f"model input {it['seed']} {name} = {m['value']!r} "
                  f"{m['unit']}")
    print(f"fingerprint {fp} ({state})")
    for p in problems:
        print(f"FAILED: {p}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
