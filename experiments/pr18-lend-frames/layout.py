#!/usr/bin/env python3
"""One workload, several builds of the two commits that differ only in the linker's function order
(-ldflags=-randlayout=N), round-robin, one process per run. usage: layout.py OUT ROUNDS WORKLOAD"""
import json, subprocess, sys, statistics as st
out, rounds, w = sys.argv[1], int(sys.argv[2]), sys.argv[3]
bins = ["bench_parent", "bench_parent_r1", "bench_parent_r2", "bench_parent_r3", "bench_new", "bench_new_r1", "bench_new_r2", "bench_new_r3"]
vals = {b: [] for b in bins}
for i in range(rounds):
    order = bins if i % 2 == 0 else bins[::-1]
    for b in order:
        p = subprocess.run(["/root/scratch/" + b, "--workload", w, "--seed", str(31 + i), "--seconds", "10", "--trace", "0"],
                           capture_output=True, text=True, cwd="/root/scratch")
        res = json.loads(p.stdout.strip().split("\n")[-1])
        vals[b].append(res["metrics"]["pics_per_s"]["value"])
        print(f"round {i+1} {b:18s} {vals[b][-1]:.1f} failed {res['failed']}", flush=True)
    json.dump(vals, open(out, "w"))
for b in bins:
    print(f"{b:18s} median {st.median(vals[b]):.0f}  {[round(v) for v in vals[b]]}")
