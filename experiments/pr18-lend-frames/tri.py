#!/usr/bin/env python3
"""svc-saturate, three builds round robin (order rotating with the round), one process per run.
usage: tri.py OUT ROUNDS SEED0 name=binary ..."""
import json, subprocess, sys, statistics as st
out, rounds, seed0 = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
bins = dict(a.split("=") for a in sys.argv[4:])
names = list(bins)
vals = {n: {} for n in names}
for i in range(rounds):
    order = names[i % len(names):] + names[:i % len(names)]
    for n in order:
        p = subprocess.run([bins[n], "--workload", "svc-saturate", "--seed", str(seed0 + i), "--seconds", "10", "--trace", "0"],
                           capture_output=True, text=True, cwd="/root/scratch")
        res = json.loads(p.stdout.strip().split("\n")[-1])
        for k, v in res["metrics"].items():
            vals[n].setdefault(k, []).append(v["value"])
        print(f"round {i+1} {n:8s} {res['metrics']['pics_per_s']['value']:.1f} heap {res['metrics']['peak_heap_mb']['value']:.2f} failed {res['failed']}", flush=True)
    json.dump(vals, open(out, "w"))
for n in names:
    print(n, {k: round(st.median(v), 3) for k, v in vals[n].items()})
