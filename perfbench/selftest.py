#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py [--seconds 12]

Run from the root of a checkout. Runs every workload of BENCHMARK.json
briefly, untraced and traced, and checks that:
  * each run exits 0 with a result line naming every metric of
    BENCHMARK.json, with its unit, and no other;
  * no op failed and every correctness check passed;
  * the workloads exercise their mechanism: HazardPtrPOP beats HP on
    list-read, EBR's unreclaimed mean on stalled-reader is at least 50x
    EpochPOP's, EpochPOP's POP free share is higher on stalled-reader
    than on hash-update, and net-kv's round trip splits into its parts;
  * the benchmark exits non-zero without a result line in a directory
    that holds only BENCHMARK.json and the benchmark's own files.
Exits 1 on the first failed check.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"selftest: FAIL: {msg}", flush=True)
    sys.exit(1)


def run(spec, workload, trace, seconds, cwd=ROOT):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", "7",
                                   "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def check_result(spec, workload, trace, p):
    if p.returncode != 0:
        fail(f"{workload} trace={trace} exited {p.returncode}:\n{p.stderr[-3000:]}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(res)}")
    if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
        fail(f"{workload} trace={trace}: correct={res['correct']} "
             f"attempted={res['attempted']} failed={res['failed']}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"{workload} trace={trace}: missing {missing} extra {extra} wrong unit {wrong}")
    for k, v in res["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            fail(f"{workload}: {k} is not a number")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, default=12)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    m = {}
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            m[(w, trace)] = check_result(spec, w, trace, run(spec, w, trace, args.seconds))
            print(f"selftest: {w} trace={trace}: {len(m[(w, trace)])} metrics, 0 failed",
                  flush=True)

    lr = m[("list-read", 0)]
    if not lr["mops.HazardPtrPOP"] > lr["mops.HP"]:
        fail(f"list-read: mops.HazardPtrPOP {lr['mops.HazardPtrPOP']} <= mops.HP {lr['mops.HP']}")
    sr = m[("stalled-reader", 0)]
    if not sr["unreclaimed_mean.EBR"] >= 50 * sr["unreclaimed_mean.EpochPOP"]:
        fail(f"stalled-reader: unreclaimed_mean.EBR {sr['unreclaimed_mean.EBR']} "
             f"< 50 x EpochPOP {sr['unreclaimed_mean.EpochPOP']}")
    share_sr = m[("stalled-reader", 1)]["core.pop_free_share.EpochPOP"]
    share_hu = m[("hash-update", 1)]["core.pop_free_share.EpochPOP"]
    if not share_sr > share_hu:
        fail(f"pop_free_share.EpochPOP: stalled-reader {share_sr} <= hash-update {share_hu}")
    nk = m[("net-kv", 1)]
    parts = nk["net.server_batch_us_mean"] + nk["net.outside_server_us_mean"]
    if abs(parts - nk["net.rtt_us_mean"]) > 1e-6 * max(1.0, nk["net.rtt_us_mean"]):
        fail(f"net-kv: server {nk['net.server_batch_us_mean']} + outside "
             f"{nk['net.outside_server_us_mean']} != rtt {nk['net.rtt_us_mean']}")
    for w in (x["name"] for x in spec["workloads"]):
        if "trace.overhead_pct" not in m[(w, 1)]:
            fail(f"{w}: no trace.overhead_pct")
    print("selftest: orderings hold", flush=True)

    # Without the sources next to it the benchmark must fail, fast and
    # without a result line.
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bare = os.path.join(build_dir, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    p = subprocess.run(list(spec["command"]) + ["--workload", "list-read", "--seed", "1",
                                                "--seconds", "1", "--trace", "0"],
                       cwd=bare, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or '"metrics"' in p.stdout:
        fail("the benchmark printed a result in a directory without sources")
    print("selftest: fails without sources, as it should", flush=True)
    print("selftest: PASS", flush=True)


if __name__ == "__main__":
    main()
