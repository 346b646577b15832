#!/usr/bin/env python3
"""Print the measured-baseline stage tables (markdown) from result sets.

    python3 perfbench/baseline.py .bench_results/sets

Uses the traced runs (--trace 1) for the per-stage self times and the row
times, and the untraced runs for the diag_serve request figures; every
number is the median over the runs found.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import pbstats  # noqa: E402

FLOW_STAGES = ("atpg", "power_eval", "find_pattern", "fill", "reorder",
               "observability", "add_mux", "leakage_tables")
DIAG_STAGES = ("ingest.ms", "diagnose.full_ms", "diagnose.noisy_ms",
               "diagnose.pair_ms", "diagnose.compact_ms", "queue.wait_ms",
               "net.overhead_ms")


def med(records, key):
    return pbstats.median([r["metrics"][key]["value"] for r in records])


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    recs = compare.load_sets(sys.argv[1])
    by = {}
    for r in recs:
        c = r["context"]
        if c.get("smoke"):
            continue
        by.setdefault((c["workload"], c["trace"]), []).append(r)

    print("| workload | row p50 | " +
          " | ".join(FLOW_STAGES) + " | traced runs |")
    print("|---|---:|" + "---:|" * len(FLOW_STAGES) + "---:|")
    for wl in ("flow_atpg", "flow_power"):
        traced = by.get((wl, 1), [])
        if not traced:
            continue
        # Traced runs alternate library rows with staged rows; their
        # end-to-end p50 is the library rows' median.
        row = pbstats.median([r["end_to_end"]["p50_ms"] for r in traced]) / 1e3
        cells = []
        for s in FLOW_STAGES:
            t = med(traced, f"{s}.busy_s")
            share = 100.0 * t / row if row else 0.0
            cells.append(f"{t:.4f} s ({share:.1f}%)" if t else "—")
        print(f"| {wl} | {row:.3f} s | " + " | ".join(cells) +
              f" | {len(traced)} |")

    atpg = by.get(("flow_atpg", 1), [])
    if atpg:
        print()
        print("| flow_atpg ATPG | detected | proven untestable | PODEM aborted "
              "| coverage | efficiency | patterns |")
        print("|---|---:|---:|---:|---:|---:|---:|")
        print(f"| median | {med(atpg, 'atpg.detected'):.0f} | "
              f"{med(atpg, 'atpg.untestable'):.0f} | "
              f"{med(atpg, 'atpg.aborted'):.0f} | "
              f"{med(atpg, 'atpg.coverage_pct'):.1f}% | "
              f"{100 * med(atpg, 'atpg.efficiency'):.1f}% | "
              f"{med(atpg, 'atpg.patterns'):.0f} |")

    traced = by.get(("diag_serve", 1), [])
    untraced = by.get(("diag_serve", 0), [])
    if traced:
        print()
        print("| diag_serve | " + " | ".join(DIAG_STAGES) +
              " | p50 / tail at nominal | max_rps |")
        print("|---|" + "---:|" * (len(DIAG_STAGES) + 2))
        cells = [f"{med(traced, s):.3f} ms" for s in DIAG_STAGES]
        p50 = pbstats.median([r["end_to_end"]["p50_ms"] for r in untraced])
        tail = pbstats.median([r["end_to_end"]["tail_ms"] for r in untraced])
        rps = pbstats.median([r["end_to_end"]["max_rps"] for r in untraced])
        print(f"| median | " + " | ".join(cells) +
              f" | {p50:.2f} / {tail:.2f} ms | {rps:g} req/s |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
