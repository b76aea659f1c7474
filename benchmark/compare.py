#!/usr/bin/env python3
"""Compares two result directories written by run.py: base first, then change.

    python3 benchmark/compare.py BASE_DIR CHANGE_DIR

Prints one row per (workload, seed, end-to-end metric) for every seed both
directories hold: both sides' quartiles over their runs of that seed, the ratio
change/base of the medians, and a verdict. For a host-clock metric:

  unresolved  a side has fewer than four runs, or the spread between a side's
              own runs (interquartile range over median) exceeds the bound or
              the loss it would have to confirm
  regressed   worse than base by more than the metric's bound (below)
  improved    better than base by more than both sides' spread, and the
              change wins nine tenths of the pairs (run i against run i, made
              turn by turn; ties count for neither)
  unchanged   anything else: within the bound, and the spread resolves it

A simulated-clock metric repeats exactly for a seed, so it has no spread: it
is `identical`, or judged against its bound whatever the number of runs.

The bounds here are those of two sets of runs with the *same* seed: 8 % for
host_pkts_per_s, 10 % for host_peak_rss_mb, 15 % or 20 ms (whichever is
larger) for setup_s, 0.5 % for every simulated metric. BENCHMARK.json's are
wider because the driver that reads them compares medians over runs with
different seeds, and inputs differ by seed. Exits non-zero on a regression, a
`model_digest` that differs, or a failed op.
"""

import glob
import json
import os
import re
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_RUNS = 4
HOST_BOUND = {"host_pkts_per_s": 0.08, "host_peak_rss_mb": 0.10, "setup_s": 0.15}
SIM_BOUND = 0.005
SETUP_FLOOR_S = 0.020


def load(directory):
    """{workload: {seed: [run, ...]}} in run order; a run is {"metrics": {name:
    value}, "clock": {name: clock}, "digest": str, "failed": int}."""
    found = []
    for path in glob.glob(os.path.join(directory, "*.seed*.run*.txt")):
        m = re.fullmatch(r"(.+)\.seed(\d+)\.run(\d+)\.txt", os.path.basename(path))
        if m:
            found.append((m.group(1), int(m.group(2)), int(m.group(3)), path))
    out = {}
    for workload, seed, _, path in sorted(found):
        lines = open(path).read().strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.exit(f"{path}: no result line")
        res = json.loads(lines[-1])
        clock = {}
        for line in lines:
            parts = line.split()
            if len(parts) == 4 and parts[3] in ("host", "sim"):
                clock[parts[0]] = parts[3]
        out.setdefault(workload, {}).setdefault(seed, []).append({
            "metrics": {k: v["value"] for k, v in res["metrics"].items()},
            "clock": clock,
            "digest": next((l.split()[1] for l in lines if l.startswith("model_digest")), None),
            "failed": res["failed"] + (0 if res["correct"] else 1),
        })
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def judge_host(va, vb, sign, bound):
    """`sign` is +1 when higher is better; `bound` a share of base's median."""
    if min(len(va), len(vb)) < MIN_RUNS:
        return f"unresolved (needs {MIN_RUNS} runs a side)"
    (a1, a2, a3), (b1, b2, b3) = quartiles(va), quartiles(vb)
    gain = sign * (b2 / a2 - 1)  # > 0 is better
    noise = max((a3 - a1) / a2, (b3 - b1) / b2)
    if gain < -bound:
        return "regressed" if -gain > noise else "unresolved"
    wins = sum(sign * (b - a) > 0 for a, b in zip(va, vb))
    losses = sum(sign * (b - a) < 0 for a, b in zip(va, vb))
    if gain > noise and wins >= 0.9 * (wins + losses):
        return "improved"
    return "unresolved" if noise > bound else "unchanged"


def judge_sim(a, b, sign):
    if a == b:
        return "identical"
    gain = sign * (b / a - 1)
    return "regressed" if gain < -SIM_BOUND else "improved" if gain > 0 else "unchanged"


def fmt(values):
    q1, q2, q3 = quartiles(values)
    return f"{q1:11.5g}/{q2:11.5g}/{q3:11.5g} ({len(values):2})"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    base, change = load(sys.argv[1]), load(sys.argv[2])
    bad = False
    tally = {}
    print(f"{'workload':<14} {'seed':>4} {'metric':<18} {'base q1/median/q3 (runs)':>41} "
          f"{'change q1/median/q3 (runs)':>41} {'change/base':>12}  verdict")
    for w in [x["name"] for x in spec["workloads"]]:
        for seed in sorted(set(base.get(w, {})) & set(change.get(w, {}))):
            a, b = base[w][seed], change[w][seed]
            digests = {r["digest"] for r in a + b}
            if len(digests) != 1:
                print(f"{w:<14} {seed:4} model_digest {' '.join(sorted(map(str, digests)))}  DIFFERS")
                bad = True
            failed = sum(r["failed"] for r in a + b)
            if failed:
                print(f"{w:<14} {seed:4} op_fail_ratio: {failed} failed ops or incorrect runs  FAILED")
                bad = True
            for m in spec["end_to_end"]:
                name = m["name"]
                va = [r["metrics"][name] for r in a]
                vb = [r["metrics"][name] for r in b]
                sign = 1 if m["better"] == "higher" else -1
                a2, b2 = statistics.median(va), statistics.median(vb)
                if a[0]["clock"].get(name) == "sim":
                    verdict, bound = judge_sim(a2, b2, sign), SIM_BOUND
                else:
                    bound = HOST_BOUND[name]
                    if name == "setup_s":
                        bound = max(bound, SETUP_FLOOR_S / a2)
                    verdict = judge_host(va, vb, sign, bound)
                word = verdict.split()[0]
                tally[word] = tally.get(word, 0) + 1
                bad |= word == "regressed"
                print(f"{w:<14} {seed:4} {name:<18} {fmt(va)} {fmt(vb)} {b2 / a2:12.4f}  "
                      f"{verdict} (base {a2:.6g} {m['unit']}, bound {bound:.3g})")
    print("\n" + ", ".join(f"{n} {word}" for word, n in sorted(tally.items())))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
