#!/usr/bin/env python3
"""bref-bench: the repository's benchmark, one workload per invocation.

    python3 brefbench/run.py --workload point-zipf --seed 1 --seconds 20 --trace 0
    python3 brefbench/run.py --workload all      # every workload, in turn
    python3 brefbench/run.py --self-test

Run from the repository root. The first run builds the driver
(brefbench/bref_bench.cpp) with CMake into $CARGO_TARGET_DIR, or
.bench_build when that is unset, from the library sources beside it.

The workload constants (sizes, mixes, offered rates, rounds, seeds) and
the layer-metric -> end-to-end-metric -> workload map live in
brefbench/spec.json; metric names, units and directions in BENCHMARK.json.
--trace 0 prints every end-to-end metric, --trace 1 every per-layer
metric. The last stdout line is the JSON result; the exit status is 0
only when every correctness check passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build():
    """Configure + build the driver; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "net", "server.h")):
        log("bref-bench: library sources (src/) not found beside brefbench/")
        sys.exit(2)
    out = os.path.join(build_dir(), "brefbench")
    binary = os.path.join(out, "bref_bench")
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "-j", str(os.cpu_count() or 2)]):
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            log("bref-bench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return binary


def driver_args(name, wl, seed, seconds, trace):
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
            "--keys", str(wl["keys"]), "--get", str(wl["get"]),
            "--update", str(wl["update"]), "--range", str(wl["range"]),
            "--zipf", str(wl["zipf"]),
            "--scan-keys", str(wl["scan_keys"]), "--rate", str(wl["rate"]),
            "--scan-rate", str(wl.get("scan_rate", 0)),
            "--rounds", str(wl["rounds"])]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans-out", os.path.join(spans, name + ".bin")]
    return args


def run_driver(binary, args):
    """Run the driver; returns (exit code, parsed result or None)."""
    try:
        r = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("bref-bench: driver timed out")
        return 1, None
    lines = [l for l in r.stdout.splitlines() if l.strip()]
    try:
        return r.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        log("bref-bench: driver printed no result (exit %d)" % r.returncode)
        return r.returncode or 1, None


def result_line(bench, res, trace):
    """The contract's result object: every metric the BENCHMARK.json list
    for this mode names, with its unit. A missing metric is a failure."""
    metrics, missing = {}, []
    for m in bench["per_layer" if trace else "end_to_end"]:
        if m["name"] in res["metrics"]:
            metrics[m["name"]] = {"value": res["metrics"][m["name"]], "unit": m["unit"]}
        else:
            missing.append(m["name"])
    correct = bool(res["correct"]) and not missing
    failed = int(res["failed"]) + len(missing)
    out = {"correct": correct, "attempted": max(1, int(res["attempted"])),
           "failed": failed, "metrics": metrics}
    return out, missing


def run_one(binary, spec, bench, name, a):
    """Run one workload; prints its diagnostics and returns (ok, result)."""
    code, res = run_driver(binary, driver_args(name, spec["workloads"][name],
                                               a.seed, a.seconds, a.trace))
    if res is None:
        return False, None
    for k, v in sorted(res.get("diag", {}).items()):
        print("diag %s %s" % (k, v))
    for f in res.get("failures", []):
        print("FAILED %s" % f)
    out, missing = result_line(bench, res, a.trace)
    for m in missing:
        print("FAILED metric not reported: %s" % m)
    return out["correct"] and code == 0, out


def run_workload(a):
    spec = load_json(os.path.join(HERE, "spec.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    names = list(spec["workloads"]) if a.workload == "all" else [a.workload]
    for n in names:
        if n not in spec["workloads"]:
            log("bref-bench: unknown workload %r (have %s, all)" % (n, ", ".join(spec["workloads"])))
            return 2
    binary = build()
    if len(names) == 1:
        ok, out = run_one(binary, spec, bench, names[0], a)
        if out is None:
            return 1
        print(json.dumps(out), flush=True)
        return 0 if ok else 1
    # --workload all: every workload in turn, then one object keyed by name.
    results, all_ok = {}, True
    for n in names:
        print("workload %s" % n, flush=True)
        ok, out = run_one(binary, spec, bench, n, a)
        for k, m in sorted((out or {}).get("metrics", {}).items()):
            print("%s %s %.6g %s" % (n, k, m["value"], m["unit"]), flush=True)
        results[n] = out
        all_ok &= ok
    print(json.dumps(results), flush=True)
    return 0 if all_ok else 1


def self_test():
    """Every workload at a tiny size, both modes: every named metric is
    printed; then a deliberately wrong expected size must be caught."""
    spec = load_json(os.path.join(HERE, "spec.json"))
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    binary = build()
    ok = True
    for name, wl in spec["workloads"].items():
        tiny = dict(wl, **spec["self_test"]["sizes"][name])
        for trace in (0, 1):
            code, res = run_driver(binary, driver_args(name, tiny, 1,
                                                       spec["self_test"]["seconds"], trace))
            if res is None:
                log("self-test %s trace=%d: no result" % (name, trace))
                ok = False
                continue
            out, missing = result_line(bench, res, trace)
            good = code == 0 and out["correct"] and not missing
            log("self-test %s trace=%d: %s%s" % (name, trace, "ok" if good else "FAIL",
                                                ("; missing " + ", ".join(missing)) if missing else ""))
            ok &= good
        code, res = run_driver(binary, driver_args(name, tiny, 1, spec["self_test"]["seconds"], 0)
                               + ["--break-size", "1"])
        caught = code != 0 and res is not None and not res["correct"] and res["failed"] > 0
        log("self-test %s wrong size count: %s" % (name, "caught" if caught else "NOT CAUGHT"))
        ok &= caught
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if a.self_test:
        return self_test()
    if not a.workload:
        p.error("--workload is required")
    spec = load_json(os.path.join(HERE, "spec.json"))
    if a.seed is None:
        a.seed = spec["seeds"]["default"]
    if a.seconds is None:
        a.seconds = load_json(os.path.join(ROOT, "BENCHMARK.json"))["run_seconds"]
    return run_workload(a)


if __name__ == "__main__":
    sys.exit(main())
