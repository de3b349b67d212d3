#!/usr/bin/env python3
"""Alternating parent/change pairs of the traced pass (--trace 1) of one workload.
usage: pairs_trace.py WORKLOAD RUNS OUT.json"""
import json, os, subprocess, sys, statistics as st
w, runs, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bins = {"parent": os.environ.get("BIN_A", "/root/scratch/bench_parent"), "change": os.environ.get("BIN_B", "/root/scratch/bench_new")}
vals = {k: {} for k in bins}
fails = {k: 0 for k in bins}
incorrect = {k: 0 for k in bins}
for i in range(runs):
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    for side in order:
        p = subprocess.run([bins[side], "--workload", w, "--seed", str(1 + i), "--seconds", "10", "--trace", "1"],
                           capture_output=True, text=True, cwd="/root/scratch")
        res = json.loads(p.stdout.strip().split("\n")[-1])
        fails[side] += res["failed"]
        incorrect[side] += 0 if res["correct"] else 1
        for k, v in res["metrics"].items():
            vals[side].setdefault(k, []).append(v["value"])
    print("pair", i + 1, "done", flush=True)
json.dump({"workload": w, "vals": vals, "fails": fails, "incorrect": incorrect}, open(out, "w"))
keys = sorted(vals["parent"])
print(f"| metric | parent median | change median |  (n={runs} pairs, failed {fails}, runs with a failed guard {incorrect})")
for k in keys:
    a, b = st.median(vals["parent"][k]), st.median(vals["change"].get(k, [float('nan')]))
    print(f"| `{k}` | {a:.4g} | {b:.4g} |")
