#!/usr/bin/env python3
"""Runs the benchmark: builds it once, then one workload process at a time.

    python3 benchmark/run.py [--workload NAME]... [--seed N]... [--runs K]
                             [--seconds S] [--reps N] [--no-traced] [--smoke]
                             [--out DIR]

Per workload and seed it makes K timed runs (`--trace 0`) and, for the first
seed, one traced run (`--trace 1`: counters, the build's layer kernels, traced
reps, and on stream_pony the attachment differentials). Every run's full
output is kept in DIR as `<workload>.seed<N>.run<I>.txt`; I continues from the
runs already there, so calling run.py again adds runs and never overwrites
one. That is how a later PR makes its ten alternating pairs: parent into one
directory, change into another, turn by turn, then `compare.py`.

At the end it prints, per end-to-end metric, the median and two spreads
(interquartile range over median, as BENCHMARK.json's bounds are judged):
between the runs of the first seed, and between the seeds' medians. A spread
needs four values. Exits non-zero if any run reports an incorrect output.
"""

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    # Reuse the repo's target directory (and its compiled dependencies)
    # unless the caller chose one.
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "target"))
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--target-dir", target],
        check=True)
    return os.path.join(target, "release", "snap-benchmark")


def run_one(binary, args, path):
    """Runs one workload process; returns (result of the last line, ok)."""
    t0 = time.time()
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True)
    with open(path, "w") as f:
        f.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    digest = next((l.split()[1] for l in lines if l.startswith("model_digest")), "-")
    print(f"  {os.path.basename(path):<40} {time.time() - t0:6.1f} s  digest {digest}  "
          f"{'ok' if ok else 'INCORRECT'}", flush=True)
    if not ok:
        sys.stdout.write("".join(l + "\n" for l in lines if l.startswith("INCORRECT")))
    return result, ok


def next_run(out, workload, seed):
    taken = [int(re.search(r"\.run(\d+)\.txt$", p).group(1))
             for p in glob.glob(os.path.join(out, f"{workload}.seed{seed}.run*.txt"))]
    return max(taken, default=0) + 1


def spread(values):
    if len(values) < 4:
        return "       -"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{(q3 - q1) / statistics.median(values):8.4f}"


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--seed", action="append", type=int)
    ap.add_argument("--runs", type=int, default=1, help="timed runs per workload and seed")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--reps", type=int)
    ap.add_argument("--no-traced", action="store_true")
    ap.add_argument("--smoke", action="store_true",
                    help="windows cut to 5 %%, one rep, correctness gate still on")
    ap.add_argument("--out", default=os.path.join(HERE, "results"))
    a = ap.parse_args()
    seeds = a.seed or [42]
    os.makedirs(a.out, exist_ok=True)
    binary = build()

    common = ["--seconds", str(a.seconds)]
    if a.reps:
        common += ["--reps", str(a.reps)]
    if a.smoke:
        common += ["--smoke"]
    all_ok = True
    table = {}  # (workload, metric) -> {seed: [value per run]}
    for w in a.workload or names:
        print(w, flush=True)
        for seed in seeds:
            args = ["--workload", w, "--seed", str(seed)] + common
            for _ in range(a.runs):
                path = os.path.join(a.out, f"{w}.seed{seed}.run{next_run(a.out, w, seed)}.txt")
                res, ok = run_one(binary, args + ["--trace", "0"], path)
                all_ok &= ok
                for name, m in (res or {"metrics": {}})["metrics"].items():
                    table.setdefault((w, name), {}).setdefault(seed, []).append(m["value"])
        if not a.no_traced:
            args = ["--workload", w, "--seed", str(seeds[0])] + common
            _, ok = run_one(binary, args + ["--trace", "1", "--out", a.out],
                            os.path.join(a.out, f"{w}.seed{seeds[0]}.traced.txt"))
            all_ok &= ok

    print(f"\n{'workload':<14} {'metric':<18} {'median':>14} {'unit':<12} "
          f"{'runs':>8} {'seeds':>8} {'bound':>6}   (spreads: between runs of seed "
          f"{seeds[0]}, between seeds)")
    for m in spec["end_to_end"]:
        for w in a.workload or names:
            by_seed = table.get((w, m["name"]))
            if not by_seed:
                continue
            medians = [statistics.median(v) for v in by_seed.values()]
            print(f"{w:<14} {m['name']:<18} {statistics.median(medians):14.6g} {m['unit']:<12} "
                  f"{spread(by_seed.get(seeds[0], []))} {spread(medians)} {m['bound']:6.3f}")
    print(f"\nresults in {a.out}")
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
