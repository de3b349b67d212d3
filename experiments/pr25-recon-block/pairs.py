#!/usr/bin/env python3
"""Alternating parent/change pairs, one benchmark process per run.

usage: BIN_A=parent-binary BIN_B=change-binary [SEED0=n] pairs.py OUTDIR RUNS [workload ...]

Each binary is `go build -o ... ./benchmark` of one tree. Seeds SEED0 ... SEED0+RUNS-1
(default from 1); in run i the parent goes first when i is even. OUTDIR gets a.json
(parent) and b.json (change) in the format of `go run ./benchmark -runs N -out f`,
rewritten after every run, so `go run ./benchmark -compare OUTDIR/a.json OUTDIR/b.json`
works on a partial set; a run that fails an operation or the oracle keeps its whole report."""
import json, subprocess, sys, os
out, runs = sys.argv[1], int(sys.argv[2])
seed0 = int(os.environ.get("SEED0", "1"))
wl = sys.argv[3:] or ["seq-intra-sif", "seq-ipb-sd", "slice-ipb-sd-w2", "gop-ipb-sd-w2", "split-tall-sif-w2", "svc-saturate", "svc-paced"]
os.makedirs(out, exist_ok=True)
bins = {"a": os.environ["BIN_A"], "b": os.environ["BIN_B"]}
sets = {k: {"values": {}, "attempted": 0, "failed": 0} for k in bins}
man = None


def run(side, w, seed):
    global man
    # A run that has not ended after five minutes is hung: SIGQUIT it so that the Go runtime
    # writes its goroutines to stderr, keep them, and stop the set.
    proc = subprocess.Popen([bins[side], "--workload", w, "--seed", str(seed), "--seconds", "10", "--trace", "0"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=out)
    try:
        so, se = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        proc.send_signal(3)
        so, se = proc.communicate()
        open(f"{out}/hung-{side}-{w}-seed{seed}.goroutines.txt", "w").write(se)
        sys.exit(f"{side} {w} seed {seed}: hung, goroutines kept")
    lines = so.strip().split("\n")
    res = json.loads(lines[-1])
    if res["failed"] or not res["correct"]:
        open(f"{out}/failed-{side}-{w}-seed{seed}.out", "w").write(so)
    if man is None:
        try:
            man = json.loads("\n".join(lines[:-1]))["manifest"]
        except Exception:
            man = {}
    s = sets[side]
    s["attempted"] += res["attempted"]
    s["failed"] += res["failed"]
    for k, v in res["metrics"].items():
        s["values"].setdefault(w, {}).setdefault(k, []).append(v["value"])
    return res


for i in range(runs):
    for w in wl:
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        r = {side: run(side, w, seed0 + i) for side in order}
        print(f"run {i+1}/{runs} {w:18s} parent {r['a']['metrics']['pics_per_s']['value']:.1f} "
              f"change {r['b']['metrics']['pics_per_s']['value']:.1f} failed {r['a']['failed']}/{r['b']['failed']}", flush=True)
    for side in bins:
        f = dict(seed=seed0, runs=i + 1, seconds=10, nproc=man.get("nproc"), gomaxprocs=man.get("gomaxprocs"),
                 go_version=man.get("go_version"), kernels=man.get("kernels"), cpu_features=man.get("cpu_features"),
                 ref_nominal=man.get("ref_nominal"), svc_paced_offered_pics_per_s=man.get("svc_paced_offered_pics_per_s"),
                 values=sets[side]["values"], attempted=sets[side]["attempted"], failed=sets[side]["failed"], claim=None)
        json.dump(f, open(f"{out}/{side}.json", "w"))
