import json, subprocess, sys, statistics as st
w, runs = sys.argv[1], int(sys.argv[2])
bins = {"parent": "/root/scratch/bench_parent", "change": "/root/scratch/bench_new"}
vals = {k: {} for k in bins}
fails = {k: 0 for k in bins}
for i in range(runs):
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    for side in order:
        p = subprocess.run([bins[side], "--workload", w, "--seed", str(1 + i), "--seconds", "10", "--trace", "1"],
                           capture_output=True, text=True, cwd="/root/scratch")
        res = json.loads(p.stdout.strip().split("\n")[-1])
        fails[side] += res["failed"]
        for k, v in res["metrics"].items():
            vals[side].setdefault(k, []).append(v["value"])
    print("pair", i + 1, "done", flush=True)
json.dump({"vals": vals, "fails": fails}, open(f"/root/scratch/trace_{w}.json", "w"))
keys = sorted(vals["parent"])
print(f"| metric | parent median | change median |  (n={runs} pairs, failed {fails})")
for k in keys:
    a, b = st.median(vals["parent"][k]), st.median(vals["change"].get(k, [float('nan')]))
    print(f"| `{k}` | {a:.4g} | {b:.4g} |")
