#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_cell and runs one workload.

    python3 perfbench/run.py --workload list-read --seed 1 --seconds 24 --trace 0

Run from the root of a checkout. Builds the cell runner from source into
$CARGO_TARGET_DIR (default .bench_build), runs every scheme of the
workload in a fresh process with an equal share of --seconds, checks the
cells' correctness reports, and prints one JSON object as the last line
of stdout: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones, and the spans of the run are written as one Chrome
trace-event file (its path goes to stderr). Exits non-zero, without a
result line, when the build fails or a cell cannot be measured; exits 1
after the result line when a correctness check failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# The paper's three scheme pairs: each POP scheme next to its base scheme.
SCHEMES = ["HP", "HazardPtrPOP", "HE", "HazardEraPOP", "EBR", "EpochPOP"]
WORKLOADS = ["list-read", "hash-update", "stalled-reader", "net-kv"]
# The cell whose request latency stands for the workload's p50_us/p99_us
# and whose net-kv run gives the unsuffixed net.* metrics.
LATENCY_SCHEME = "EpochPOP"

# Each scheme runs in ROUNDS fresh processes, interleaved with the other
# schemes, and reports the median. On a shared machine a cell's throughput
# moves with the machine's load over seconds, and a longer window does not
# average that out; short interleaved rounds spread every scheme over the
# whole run, so one slow stretch touches all schemes alike.
ROUNDS = 8
CELL_TIMEOUT_S = 60


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the cell runner; returns its path."""
    out = os.path.join(build_dir, "perfbench")
    cmds = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmds.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    cmds.append(["cmake", "--build", out, "--target", "perfbench_cell", "-j", jobs])
    for cmd in cmds:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(out, "perfbench_cell")


def run_cell(exe, workload, scheme, seed, window_ms, trace, spans_path):
    cmd = [exe, "--workload", workload, "--scheme", scheme, "--seed", str(seed),
           "--window-ms", str(window_ms), "--trace", str(trace)]
    if spans_path:
        cmd += ["--spans", spans_path]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=CELL_TIMEOUT_S,
                           text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: cell {workload}/{scheme} timed out")
        sys.exit(3)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        log(f"perfbench: cell {workload}/{scheme} exited {p.returncode}")
        sys.exit(3)
    return json.loads(lines[-1])


def median_fields(rounds):
    """Per numeric field, the median over one scheme's rounds."""
    return {k: statistics.median(c[k] for c in rounds)
            for k, v in rounds[0].items() if isinstance(v, (int, float))}


def end_to_end(cells):
    m = {}
    for s in SCHEMES:
        m[f"mops.{s}"] = (cells[s]["mops"], "Mops/s")
    for s in SCHEMES:
        m[f"unreclaimed_mean.{s}"] = (cells[s]["unreclaimed_mean"], "nodes")
    m["p50_us"] = (cells[LATENCY_SCHEME]["lat_p50_us"], "us")
    m["p99_us"] = (cells[LATENCY_SCHEME]["lat_p99_us"], "us")
    m["setup_s"] = (sum(c["setup_s"] for c in cells.values()), "s")
    return m


PER_SCHEME = [
    # (metric, cell field, unit)
    ("smr.protect_ns", "protect_ns", "ns"),
    ("smr.bracket_ns", "bracket_ns", "ns"),
    ("ds.get_ns_p50", "get_ns_p50", "ns"),
    ("ds.get_ns_p99", "get_ns_p99", "ns"),
    ("ds.update_ns_p50", "update_ns_p50", "ns"),
    ("smr.scans_per_kop", "scans_per_kop", "1/kop"),
    ("smr.freed_per_scan", "freed_per_scan", "nodes"),
    ("smr.sweep_us_p50", "sweep_us_p50", "us"),
    ("smr.unreclaimed_peak", "unreclaimed_peak", "nodes"),
    ("runtime.pool_blocks_per_splice", "pool_blocks_per_splice", "blocks"),
    ("runtime.pool_remote_free_share", "pool_remote_free_share", "ratio"),
    ("proc.sys_share", "sys_share", "ratio"),
    ("proc.ctx_switches_per_kop", "ctx_switches_per_kop", "1/kop"),
]
POP_SCHEMES = ["HazardPtrPOP", "HazardEraPOP", "EpochPOP"]
# EpochPOP pings only when its fallback fires, which it never does on some
# workloads, so its wave time would read 0; its ping path is measured by
# signals_per_scan and pop_free_share instead.
PINGING_SCHEMES = ["HazardPtrPOP", "HazardEraPOP"]


def per_layer(cells):
    m = {}
    for name, field, unit in PER_SCHEME:
        for s in SCHEMES:
            m[f"{name}.{s}"] = (cells[s][field], unit)
    for s in POP_SCHEMES:
        m[f"core.signals_per_scan.{s}"] = (cells[s]["signals_per_scan"], "count")
    for s in PINGING_SCHEMES:
        m[f"core.ping_wave_us_p50.{s}"] = (cells[s]["ping_wave_us_p50"], "us")
    m["core.pop_free_share.EpochPOP"] = (cells["EpochPOP"]["pop_free_share"], "ratio")
    net = cells[LATENCY_SCHEME]
    rtt, server = net["net_rtt_us_mean"], net["net_server_batch_us_mean"]
    m["net.rtt_us_mean"] = (rtt, "us")
    m["net.server_batch_us_mean"] = (server, "us")
    m["net.outside_server_us_mean"] = (rtt - server, "us")
    m["net.ops_per_server_batch"] = (net["net_ops_per_server_batch"], "ops")
    m["proc.vcsw_per_batch"] = (net["net_vcsw_per_batch"], "count")
    m["service.shard_skew"] = (net["net_shard_skew"], "ratio")
    untraced = sum(c["mops_untraced"] for c in cells.values())
    traced = sum(c["mops_traced"] for c in cells.values())
    m["trace.overhead_pct"] = (100.0 * (1.0 - traced / untraced) if untraced else 0.0, "%")
    return m


def merge_spans(parts, path):
    """Concatenates the cells' span files into one Chrome trace, one pid per cell."""
    events = []
    dropped = 0
    for pid, (label, part) in enumerate(parts, start=1):
        try:
            with open(part) as f:
                doc = json.load(f)
        except (OSError, ValueError):
            continue
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": label}})
        for e in doc.get("traceEvents", []):
            e["pid"] = pid
            events.append(e)
        dropped += doc.get("otherData", {}).get("dropped_spans", 0)
        os.remove(part)
    t0 = min((e["ts"] for e in events if "ts" in e), default=0)
    for e in events:
        if "ts" in e:
            e["ts"] = round(e["ts"] - t0, 3)
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns",
                   "otherData": {"dropped_spans": dropped}}, f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    window_ms = max(1, int(round(1000.0 * args.seconds / (len(SCHEMES) * ROUNDS))))

    runs, parts = {s: [] for s in SCHEMES}, []
    for r in range(ROUNDS):
        for s in SCHEMES:
            part = None
            if args.trace:
                part = os.path.join(build_dir, f"spans-{args.workload}-{s}-{r}.json")
                parts.append((f"{args.workload}/{s}/round{r}", part))
            c = run_cell(exe, args.workload, s, args.seed * ROUNDS + r, window_ms,
                         args.trace, part)
            runs[s].append(c)
            log(f"{args.workload:>14} {s:>12} r{r}  mops={c['mops']:.4f}  "
                f"unreclaimed_mean={c['unreclaimed_mean']:.1f}  "
                f"setup_s={c['setup_s']:.5f}  window_s={c['window_s']:.4f}  "
                f"lat_samples={c['lat_samples']:.0f}  nproc={c['nproc']:.0f}  "
                f"cpus[{c['cpu_map']}]"
                + (f"  errors={c['errors']}" if c["errors"] else ""))

    every = [c for rs in runs.values() for c in rs]
    window_errors = [e for c in every for e in c["errors"] if e.startswith("window")]
    if window_errors:
        log("perfbench: window check failed: " + "; ".join(window_errors))
        sys.exit(4)

    if args.trace:
        trace_path = os.path.join(build_dir, f"trace-{args.workload}-seed{args.seed}.json")
        merge_spans(parts, trace_path)
        log(f"perfbench: spans written to {trace_path}")

    cells = {s: median_fields(rs) for s, rs in runs.items()}
    metrics = per_layer(cells) if args.trace else end_to_end(cells)
    failed = sum(int(c["failed"]) for c in every)
    correct = failed == 0 and not any(c["errors"] for c in every)
    result = {
        "correct": correct,
        "attempted": max(1, sum(int(c["attempted"]) for c in every)),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
