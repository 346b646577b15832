#!/usr/bin/env python3
"""One command for the scanpower benchmark.

    python3 perfbench/run.py --workload flow_atpg|flow_power|diag_serve \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout. It builds the library, diag_server
and the benchmark runner from source (CMake, into $CARGO_TARGET_DIR or
.bench_build), runs one workload, checks every correctness gate and
prints, as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The line before it records the
machine context. Every result set is also kept under .bench_results/ for
compare.py. A failed gate prints "correct": false and exits 1.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import pbstats  # noqa: E402

WORKLOADS = ("flow_atpg", "flow_power", "diag_serve")
RUNNER_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_config(smoke):
    with open(os.path.join(HERE, "config.json")) as f:
        cfg = json.load(f)
    if smoke:
        for wl, over in cfg["smoke"].items():
            cfg[wl].update(over)
    return cfg


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build(build_dir):
    """Configures and builds the runner and diag_server (both steps only
    redo what changed)."""
    jobs = str(max(1, os.cpu_count() or 1))
    cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target",
           "perfbench_runner", "diag_server"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise SystemExit("perfbench: build failed")
    runner = os.path.join(build_dir, "perfbench_runner")
    server = os.path.join(build_dir, "scanpower", "diag_server")
    return runner, server


def source_digest():
    """SHA-1 over the library sources and build files, so result sets from
    different code are never mixed up even without git."""
    h = hashlib.sha1()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base in ("src", "bench", "examples"):
        for d, _, files in sorted(os.walk(os.path.join(ROOT, base))):
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_workload(cmd):
    """Runs perfbench_runner in its own process group; on timeout the whole
    group (the runner and any diag_server it spawned) is killed and reaped."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit("perfbench: runner timed out")


def runner_args(workload, cfg):
    c = cfg[workload]
    if workload == "diag_serve":
        return ["--designs", ",".join(c["designs"]),
                "--corpus-seed", str(c["corpus_seed"]),
                "--diag-patterns", str(c["patterns"]),
                "--per-kind", ",".join(str(n) for n in c["per_kind"]),
                "--setups", str(c["setups"]),
                "--rates", ",".join(str(r) for r in c["ladder_rps"]),
                "--shares", ",".join(str(s) for s in c["rung_shares"]),
                "--nominal", str(c["nominal_index"])]
    out = ["--circuit", c["circuit"]]
    if workload == "flow_atpg":
        out += ["--atpg-inputs", str(c["inputs"])]
    if workload == "flow_power":
        out += ["--power-patterns", str(c["patterns"])]
    return out


# ---- metrics ----------------------------------------------------------------


def rungs(raw):
    """(index, rate, due, done, status, sent, pick) of every rung run."""
    v, s = raw["values"], raw["series"]
    out = []
    for k in range(64):
        key = f"rung{k}"
        if f"{key}.rate" in v:
            out.append((k, v[f"{key}.rate"], s[f"{key}.due_ms"],
                        s[f"{key}.done_ms"], [int(x) for x in s[f"{key}.status"]],
                        s[f"{key}.sent_ms"], s[f"{key}.pick_ms"]))
    return out


def generator_late(rung):
    """How late the generator sent each request after it was both due and
    had a free connection."""
    _, _, due, _, status, sent, pick = rung
    return [se - max(du, pi) for du, se, pi, st in zip(due, sent, pick, status)
            if st != 0]


def end_to_end(workload, raw, cfg, gates):
    """The run's end-to-end figures. BENCHMARK.json bounds the CPU-time
    ones (setup_s, cpu_ms_per_op) and peak_rss_mb; wall-clock latency and
    max_rps are kept in the result set and the context line.

    Both CPU times are scaled to the reference host speed: multiplied by
    speed_reference_ms over the median time of the run's host-speed
    reference bursts (src/calib.hpp). The unscaled ones are raw_*."""
    v, s = raw["values"], raw["series"]
    m = {"raw_setup_s": pbstats.median(s["setup_s"]),
         "setup_wall_s": pbstats.median(s["setup_wall_s"]),
         "peak_rss_mb": v["peak_rss_mb"]}
    facts = {}
    if workload == "diag_serve":
        c = cfg["diag_serve"]
        slack = int(v["connections"])
        summaries = []
        for rung in rungs(raw):
            k, rate, due, done, status = rung[:5]
            r = pbstats.rung_summary(due, done, status, c["tail_limit_ms"], slack)
            r["rung"], r["rate"] = k, rate
            summaries.append(r)
            late = generator_late(rung)
            if late and pbstats.tail(late) > c["max_generator_late_ms"]:
                gates.append({"name": "generator_on_time", "ok": False,
                              "detail": f"rung {k}: generator {pbstats.tail(late):.1f} ms late"})
        nominal = next(r for r in summaries if r["rung"] == int(v["nominal"]))
        key = f"rung{int(v['nominal'])}"
        answered = sum(1 for x in s[f"{key}.status"] if int(x) == 1)
        m["raw_cpu_ms_per_op"] = v[f"{key}.server_cpu_ms"] / max(1, answered)
        m["p50_ms"] = nominal["p50_ms"]
        m["tail_ms"] = nominal["tail_ms"]
        m["max_rps"] = pbstats.max_passing_rate(
            [r["rate"] for r in summaries], [r["passes"] for r in summaries])
        facts["rungs"] = [{k: (None if isinstance(x, float) and not math.isfinite(x)
                               else x) for k, x in r.items()} for r in summaries]
        facts["tail_percentile"] = nominal["tail_pct"]
    else:
        rows = s["row_ms"]
        m["raw_cpu_ms_per_op"] = pbstats.mean_of_medians(
            s["row_cpu_ms"], [int(i) for i in s["row_input"]])
        m["p50_ms"] = pbstats.median(rows)
        m["tail_ms"] = pbstats.tail(rows)
        m["max_rps"] = len(rows) / (sum(rows) / 1e3)
        facts["rows"] = len(rows)
        facts["tail_percentile"] = pbstats.tail_percentile(len(rows))
    # Traced diag_serve runs sample no reference bursts (and print no
    # end-to-end metric).
    m["speed_ms"] = pbstats.median(s.get("speed_ms", []))
    scale = cfg["speed_reference_ms"] / m["speed_ms"] if m["speed_ms"] else 1.0
    m["setup_s"] = m["raw_setup_s"] * scale
    m["cpu_ms_per_op"] = m["raw_cpu_ms_per_op"] * scale
    return m, facts


def per_layer(workload, raw, spans, e2e):
    v, s = raw["values"], raw["series"]
    m = {"wall.p50_ms": e2e["p50_ms"], "wall.tail_ms": e2e["tail_ms"]}
    for key in ("add_mux.muxed", "power_eval.calls", "power_eval.cycles",
                "find_pattern.blocked", "find_pattern.propagated",
                "find_pattern.block_ratio", "fill.trials", "fill.free_inputs",
                "reorder.permuted", "atpg.patterns", "atpg.detected",
                "atpg.untestable", "atpg.aborted", "atpg.efficiency",
                "queue.depth_max", "queue.rejected", "net.retries"):
        m[key] = v.get(key, 0.0)
    if workload == "flow_atpg":
        m["atpg.coverage_pct"] = v["q.coverage_pct"]
    if workload != "diag_serve":
        m["flow.dyn_saving_pct"] = v["q.dyn_saving_pct"]
        m["flow.static_saving_pct"] = v["q.static_saving_pct"]
        layers = pbstats.per_root_self(spans)
        for name in ("atpg", "add_mux", "power_eval", "observability",
                     "leakage_tables", "find_pattern", "fill", "reorder"):
            m[f"{name}.busy_s"] = pbstats.median(layers.get(name, [])) / 1e3
        rows = [(sp["end_ns"] - sp["start_ns"]) / 1e6 for sp in spans
                if sp["parent"] < 0]
        if "atpg" in layers:
            m["atpg.share_pct"] = 100.0 * pbstats.median(
                [a / r for a, r in zip(layers["atpg"], rows)])
        m["trace.overhead_pct"] = 100.0 * (
            pbstats.median(s["traced_row_ms"]) / pbstats.median(s["row_ms"]) - 1)
        return m

    # diag_serve
    m["diag.hit_pct"] = v["q.hit_pct"]
    own = pbstats.self_times(spans)
    for name in ("ingest", "diagnose.full", "diagnose.noisy", "diagnose.pair",
                 "diagnose.compact"):
        key = "ingest.ms" if name == "ingest" else f"{name}_ms"
        m[key] = pbstats.median(
            [t for t, sp in zip(own, spans) if sp["name"] == name])
    for key in ("prune_us", "score_us", "cover_us", "candidates"):
        m[f"diagnose.{key}"] = pbstats.median(s[f"diag.{key}"])
    m["diagnose.drop_ratio"] = sum(s["diag.dropped"]) / max(1, sum(s["diag.candidates"]))
    m["diagnose.sweep_abort_ratio"] = (sum(s["diag.sweep_aborts"]) /
                                       max(1, sum(s["diag.sweep_calls"])))
    m["diagnose.union_fallbacks"] = sum(s["diag.union_fallback"])
    diag = {sp["request"]: (sp["end_ns"] - sp["start_ns"]) / 1e6
            for sp in spans if sp["name"].startswith("diagnose.")}
    queue = pbstats.by_request(spans, "queue")
    net = pbstats.by_request(spans, "net")
    m["queue.wait_ms"] = pbstats.median([queue[r] - diag[r] for r in queue])
    m["net.overhead_ms"] = pbstats.median([net[r] - queue[r] for r in net])
    m["net.bytes_per_req"] = v["net.bytes"] / max(1.0, v["net.requests"])
    late = [x for rung in rungs(raw) for x in generator_late(rung)]
    m["gen.late_ms"] = pbstats.tail(late) if late else 0.0
    m["trace.overhead_pct"] = 100.0 * (
        sum(s["traced_inproc_ms"]) / sum(s["untraced_inproc_ms"]) - 1)
    return m


def quality(workload, raw):
    v = raw["values"]
    if workload == "diag_serve":
        return {"diag_hit_pct": v["q.hit_pct"]}
    q = {"dyn_saving_pct": v["q.dyn_saving_pct"],
         "static_saving_pct": v["q.static_saving_pct"]}
    if workload == "flow_atpg":
        q["fault_coverage_pct"] = v["q.coverage_pct"]
        q["test_patterns"] = v["q.patterns"]
    return q


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small inputs (s344 rows, one short diag_serve rung)")
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log(f"no scanpower sources next to {HERE}; run from a source checkout")
        return 2
    spec = load_spec()
    cfg = load_config(args.smoke)
    seed = cfg["seeds"]["default"] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    runner, server = build(build_dir)

    results = os.path.abspath(".bench_results")
    work = os.path.join(results, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    tag = f"{args.workload}-s{seed}-t{args.trace}"
    raw_path = os.path.join(results, "raw", tag + ".json")
    spans_path = os.path.join(results, "raw", tag + ".spans.jsonl")
    os.makedirs(os.path.dirname(raw_path), exist_ok=True)

    load_before = os.getloadavg()
    cmd = [runner, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(args.trace),
           "--out", raw_path, "--spans", spans_path, "--work-dir", work,
           "--server", server] + runner_args(args.workload, cfg)
    try:
        rc = run_workload(cmd)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if rc != 0:
        log(f"runner exited with code {rc}")
        return 1
    load_after = os.getloadavg()
    with open(raw_path) as f:
        raw = json.load(f)

    gates = list(raw["gates"])
    e2e, facts = end_to_end(args.workload, raw, cfg, gates)
    names = ([m["name"] for m in spec["per_layer"]] if args.trace
             else [m["name"] for m in spec["end_to_end"]])
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    if args.trace:
        spans = []
        if os.path.exists(spans_path):
            with open(spans_path) as f:
                spans = [json.loads(line) for line in f]
        values = per_layer(args.workload, raw, spans, e2e)
    else:
        values = e2e
    metrics = {n: {"value": float(values.get(n, 0.0)), "unit": units[n]}
               for n in names}
    # A tail made of failed or abandoned requests is infinite; JSON has no
    # such number, and such a run is not a valid measurement.
    for n, m in metrics.items():
        if not math.isfinite(m["value"]):
            gates.append({"name": "finite_metrics", "ok": False,
                          "detail": f"{n} is not finite"})
            m["value"] = 0.0

    v = raw["values"]
    attempted = int(v.get("attempted", facts.get("rows", 0)))
    failed = int(v.get("failed", 0))
    correct = all(g["ok"] for g in gates)
    context = {
        "workload": args.workload, "seed": seed, "seconds": seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": int(v["ctx.nproc"]), "backend_w4": raw["text"]["ctx.backend_w4"],
        "compiler": raw["text"]["ctx.compiler"],
        "build_type": raw["text"]["ctx.build_type"],
        "git_commit": git_commit(), "source_digest": source_digest(),
        "loadavg_before": list(load_before), "loadavg_after": list(load_after),
        "digest": raw["text"].get("digest", ""),
        "quality": quality(args.workload, raw),
        "wall": {k: e2e[k] for k in ("p50_ms", "tail_ms", "max_rps",
                                      "setup_wall_s")},
        "raw_cpu_ms_per_op": e2e["raw_cpu_ms_per_op"],
        "raw_setup_s": e2e["raw_setup_s"],
        "speed_ms": e2e["speed_ms"],
        **facts,
    }
    for g in gates:
        if not g["ok"]:
            log(f"GATE FAILED {g['name']}: {g['detail']}")
    record = {"time": time.time(), "context": context, "gates": gates,
              "correct": correct, "attempted": attempted, "failed": failed,
              "end_to_end": e2e, "metrics": metrics}
    sets = os.path.join(results, "sets", args.workload)
    os.makedirs(sets, exist_ok=True)
    with open(os.path.join(sets, f"{tag}-{time.time_ns()}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
