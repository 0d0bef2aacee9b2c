"""noise.py DIR — the table of repeat.sh.

Reads DIR/<set>.<workload>.<i>.json (the last output line of one run each)
and BENCHMARK.json, prints a Markdown table, and exits 1 if the two sets
disagree by more than a metric's bound or a set's own spread exceeds it.
"""
import glob
import json
import os
import statistics
import sys


def load(directory):
    runs = {}  # (set, workload) -> metric -> [values]
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        name, workload, _, _ = os.path.basename(path).split(".")
        with open(path) as f:
            res = json.load(f)
        if not res["correct"] or res["failed"]:
            sys.exit(f"{path}: run failed")
        per = runs.setdefault((name, workload), {})
        for metric, v in res["metrics"].items():
            per.setdefault(metric, []).append(v["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    runs = load(sys.argv[1])
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bad = 0
    print("| workload | metric | A median [q1, q3] | B median [q1, q3] | spread A | spread B | spread A+B | B vs A | bound | |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            a = runs[("A", w["name"])][m["name"]]
            b = runs[("B", w["name"])][m["name"]]
            (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
            spread_a, spread_b = (a3 - a1) / a2, (b3 - b1) / b2
            p1, p2, p3 = quartiles(a + b)  # all runs pooled: what the driver's ten runs would show
            worse = (b2 - a2) / a2 if m["better"] == "lower" else (a2 - b2) / a2
            # The driver does not hold setup_s to its own spread, only to the medians.
            spreads = [] if m["name"] == "setup_s" else [spread_a, spread_b]
            ok = abs(worse) <= m["bound"] and all(s <= m["bound"] for s in spreads)
            bad += not ok
            print(f"| {w['name']} | {m['name']} ({m['unit']}) "
                  f"| {a2:.6g} [{a1:.6g}, {a3:.6g}] | {b2:.6g} [{b1:.6g}, {b3:.6g}] "
                  f"| {spread_a:.2%} | {spread_b:.2%} | {(p3 - p1) / p2:.2%} | {worse:+.2%} | {m['bound']:.0%} "
                  f"| {'ok' if ok else 'FAIL'} |")
    print()
    print("Every pairing agrees within its bound." if not bad else f"{bad} pairing(s) outside their bound.")
    sys.exit(1 if bad else 0)


main()
