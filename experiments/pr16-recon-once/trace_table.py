#!/usr/bin/env python3
"""Markdown table of the traced pairs, with the picture-type times also taken
relative to the same run's I pictures (whose decode this change all but leaves
alone): absolute microseconds drift with the host between runs, the ratio
inside one run does not.
usage: trace_table.py experiments/pr16-recon-once/trace-seq-ipb-sd.json"""
import json, sys, statistics as st
d = json.load(open(sys.argv[1]))
p, c = d["vals"]["parent"], d["vals"]["change"]
n = len(p["mpeg2.vld_share"])
print(f"workload {d['workload']}: {n} pairs, failed {d['fails']}, runs with a failed guard {d['incorrect']}\n")
def med(v): return st.median(v)
def rng(v): return f"{min(v):.4g}–{max(v):.4g}"
rows = ["mpeg2.vld_share", "mpeg2.vld_us_per_pic", "mpeg2.vld_us_per_pic.i", "mpeg2.vld_us_per_pic.p", "mpeg2.vld_us_per_pic.b",
        "decoder.recon_us_per_pic", "decoder.recon_us_per_pic.i", "decoder.recon_us_per_pic.p", "decoder.recon_us_per_pic.b",
        "decoder.store_us_per_pic", "motion.mc_us_per_pic", "dct.idct_us_per_pic", "decoder.seq_pics_per_s",
        "kernels.seq_pics_per_s.scalar", "kernels.seq_pics_per_s.swar", "kernels.seq_pics_per_s.asm"]
print("| Metric | parent median (min–max) | change median (min–max) | change/parent |")
print("|---|---|---|---|")
for k in rows:
    if k not in p or med(p[k]) == 0: continue
    print(f"| `{k}` | {med(p[k]):.4g} ({rng(p[k])}) | {med(c[k]):.4g} ({rng(c[k])}) | {med(c[k])/med(p[k]):.3f} |")
def rel(side, k, yard):
    return [a / b for a, b in zip(side[k], side[yard]) if b]
print()
print("| Relative to the same run's I pictures | parent median | change median | change/parent |")
print("|---|---|---|---|")
for k, yard in [("mpeg2.vld_us_per_pic.p", "mpeg2.vld_us_per_pic.i"), ("mpeg2.vld_us_per_pic.b", "mpeg2.vld_us_per_pic.i"),
                ("decoder.recon_us_per_pic.p", "decoder.recon_us_per_pic.i"), ("decoder.recon_us_per_pic.b", "decoder.recon_us_per_pic.i")]:
    if k not in p or med(p[k]) == 0: continue
    a, b = med(rel(p, k, yard)), med(rel(c, k, yard))
    print(f"| `{k}` / `{yard.split('.')[-2]}.{yard.split('.')[-1]}` | {a:.4f} | {b:.4f} | {b/a:.3f} |")
print()
counts = ["mpeg2.mbs_per_pic", "mpeg2.coded_bits_per_pic", "motion.pred_mbs_per_pic", "motion.bidir_mbs_per_pic", "dct.coded_blocks_per_pic", "quant.coefs_per_pic"]
same = all(p[k] == c[k] for k in counts if k in p)
print("counts repeat exactly, pair by pair:", same, {k: med(p[k]) for k in counts if k in p})
