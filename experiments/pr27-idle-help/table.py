#!/usr/bin/env python3
"""Markdown table of one set of pairs: table.py DIR/set1 reads DIR/set1-parent.json and DIR/set1-change.json."""
import json, sys, statistics as st
d = sys.argv[1]
a = json.load(open(f"{d}-parent.json")); b = json.load(open(f"{d}-change.json"))
bounds = {"pics_per_s": (0.15, "higher"), "frame_latency_p50_ms": (0.2, "lower"), "frame_latency_p90_ms": (0.25, "lower"), "peak_heap_mb": (0.2, "lower"), "setup_s": (0.25, "lower")}
def q(v):
    if len(v) < 2: return (v[0], v[0], v[0])
    qs = st.quantiles(v, n=4); return (qs[0], st.median(v), qs[2])
def fmt(x):
    return f"{x:.4g}"
print(f"runs: {a['runs']} pairs; failed parent {a['failed']}/{a['attempted']}, change {b['failed']}/{b['attempted']}\n")
print("| Workload | Metric | parent median (q1–q3) | change median (q1–q3) | change/parent | pairs won by change | verdict (bound) |")
print("|---|---|---|---|---|---|---|")
for w in a["values"]:
    for m, (bound, better) in bounds.items():
        av, bv = a["values"][w][m], b["values"][w][m]
        aq, bq = q(av), q(bv)
        r = bq[1] / aq[1]
        wins = sum(1 for x, y in zip(av, bv) if (y > x if better == "higher" else y < x))
        worse = (1 - r) if better == "higher" else (r - 1)
        verdict = "ok" if worse <= bound else "WORSE"
        print(f"| `{w}` | `{m}` | {fmt(aq[1])} ({fmt(aq[0])}–{fmt(aq[2])}) | {fmt(bq[1])} ({fmt(bq[0])}–{fmt(bq[2])}) | {r:.3f} | {wins}/{len(av)} | {verdict} ({bound}) |")
