#!/usr/bin/env python3
"""Compare two benchmark result sets: parent vs change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories holding the result sets run.py writes
(each checkout's .bench_results/sets, or copies of them). Run the two
sides as alternating pairs -- parent, change, change, parent, ... -- with
identical benchmark code and settings; the i-th parent run is paired with
the i-th change run of the same workload, in time order.

Prints:
  - one row per workload x end-to-end metric: each side's median and
    quartiles, pairs won, and the verdict (gain / same / regression /
    unresolved) by section 8 of the choosing-metrics guide (see
    pbstats.verdict);
  - the deterministic outputs (quality figures, flow digests) that differ
    for the same seed;
  - per-layer self-time deltas from the traced runs.

When the two sides ran on different machines (nproc, backend, compiler
or build type differ) the first line of the output says so: results from
different machines are never compared silently.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pbstats  # noqa: E402

MACHINE_KEYS = ("nproc", "backend_w4", "compiler", "build_type")


def load_sets(path):
    out = []
    for d, _, files in os.walk(path):
        for f in files:
            if f.endswith(".json"):
                with open(os.path.join(d, f)) as fh:
                    rec = json.load(fh)
                if "context" in rec and "metrics" in rec:
                    out.append(rec)
    out.sort(key=lambda r: r["time"])
    return out


def machines(records):
    return {tuple(r["context"][k] for k in MACHINE_KEYS) for r in records}


def compare(parent, change, spec):
    """Returns (rows, quality_diffs, layer_rows) for the two record lists."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    rows = []
    for wl in workloads:
        p = [r for r in parent if r["context"]["workload"] == wl
             and not r["context"]["trace"]]
        c = [r for r in change if r["context"]["workload"] == wl
             and not r["context"]["trace"]]
        if not p or not c:
            continue
        for name, m in e2e.items():
            pv = [r["end_to_end"][name] for r in p]
            cv = [r["end_to_end"][name] for r in c]
            v, detail = pbstats.verdict(pv, cv, m["better"], m["bound"])
            rows.append({"workload": wl, "metric": name, "unit": m["unit"],
                         "verdict": v, "parent_q": pbstats.quartiles(pv),
                         "change_q": pbstats.quartiles(cv), **detail})

    def by_seed(records):
        return {(r["context"]["workload"], r["context"]["seed"]): r["context"]
                for r in records}

    ps, cs = by_seed(parent), by_seed(change)
    quality = [{"workload": wl, "seed": seed, "field": key,
                "parent": ps[(wl, seed)].get(key),
                "change": cs[(wl, seed)].get(key)}
               for wl, seed in sorted(ps.keys() & cs.keys())
               for key in ("quality", "digest")
               if ps[(wl, seed)].get(key) != cs[(wl, seed)].get(key)]

    layers = []
    timed = [m["name"] for m in spec["per_layer"]
             if m["unit"] in ("s", "ms", "us")]
    for wl in workloads:
        p = [r for r in parent if r["context"]["workload"] == wl
             and r["context"]["trace"]]
        c = [r for r in change if r["context"]["workload"] == wl
             and r["context"]["trace"]]
        if not p or not c:
            continue
        for name in timed:
            pm = pbstats.median([r["metrics"][name]["value"] for r in p])
            cm = pbstats.median([r["metrics"][name]["value"] for r in c])
            if pm == 0 and cm == 0:
                continue
            layers.append({"workload": wl, "metric": name,
                           "unit": p[0]["metrics"][name]["unit"],
                           "parent": pm, "change": cm,
                           "delta_pct": 100.0 * (cm - pm) / pm if pm else 0.0})
    return rows, quality, layers


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load_sets(args.parent), load_sets(args.change)
    if not parent or not change:
        print("compare: no result sets found", file=sys.stderr)
        return 2
    seen = machines(parent) | machines(change)
    if len(seen) > 1:
        print(f"WARNING: the result sets come from different machines "
              f"(nproc, backend, compiler, build type): {sorted(seen)}")

    rows, quality, layers = compare(parent, change, spec)
    print(f"{'workload':<11} {'metric':<12} {'parent q1/med/q3':>28} "
          f"{'change q1/med/q3':>28} {'wins':>6} {'delta':>8}  verdict")
    for r in rows:
        pq = "/".join(f"{x:.4g}" for x in r["parent_q"])
        cq = "/".join(f"{x:.4g}" for x in r["change_q"])
        print(f"{r['workload']:<11} {r['metric']:<12} {pq:>28} {cq:>28} "
              f"{r['wins']:>2}/{r['pairs']:<3} {r['change_pct']:>+7.1f}%  "
              f"{r['verdict']}")
    if quality:
        print("\ndeterministic outputs that differ for the same seed:")
        for q in quality:
            print(f"  {q['workload']} seed {q['seed']} {q['field']}: "
                  f"{q['parent']} -> {q['change']}")
    if layers:
        print("\nper-layer self time (traced runs, medians):")
        for r in layers:
            print(f"  {r['workload']:<11} {r['metric']:<24} {r['parent']:>12.5g} "
                  f"-> {r['change']:<12.5g} {r['unit']:<3} {r['delta_pct']:>+7.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
