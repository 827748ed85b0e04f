#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale.

    python3 perfbench/selftest.py

For every workload of BENCHMARK.json it runs the benchmark with --scale 30 in
both modes and asserts that the result line has exactly the keys correct,
attempted, failed and metrics, that every end-to-end (untraced) or
per-layer (traced) metric is emitted with its unit and a finite value, and
that the answers checked out. It then
runs once with --corrupt, which alters one checked answer, and asserts that
the run fails. It also checks that layer_map.json covers every per-layer
metric and names only known metrics, figures and workloads. Exits 1 on any
failure.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "30"
SECONDS = "3"

failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print("FAIL: " + what, file=sys.stderr)


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
           "--scale", SCALE] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def check_result(workload, trace, rc, result, wanted):
    tag = "%s trace=%d" % (workload, trace)
    expect(rc == 0, tag + ": exit code %s" % rc)
    if result is None:
        expect(False, tag + ": no result line")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           tag + ": result keys %s" % sorted(result))
    expect(result.get("correct") is True, tag + ": answers did not check out")
    expect(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
           tag + ": attempted %r" % result.get("attempted"))
    expect(result.get("failed") == 0, tag + ": failed %r" % result.get("failed"))
    metrics = result.get("metrics", {})
    expect(set(metrics) == set(wanted),
           tag + ": metric names differ: missing %s, extra %s" %
           (sorted(set(wanted) - set(metrics)), sorted(set(metrics) - set(wanted))))
    for name, unit in wanted.items():
        m = metrics.get(name)
        if m is None:
            continue
        expect(m.get("unit") == unit, tag + ": %s unit %r, want %r" %
               (name, m.get("unit"), unit))
        v = m.get("value")
        expect(isinstance(v, (int, float)) and math.isfinite(v),
               tag + ": %s value %r" % (name, v))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    with open(os.path.join(HERE, "layer_map.json")) as f:
        doc = json.load(f)
    layer_map = doc["metrics"]
    figures = {k: v for k, v in doc["figures"].items() if k != "why"}
    expect(set(layer_map) == set(per_layer),
           "layer_map.json and BENCHMARK.json differ on %s" %
           sorted(set(layer_map) ^ set(per_layer)))
    for name, entry in figures.items():
        expect(entry["printed_as"] in per_layer,
               "figure %s printed as unknown %s" % (name, entry["printed_as"]))
    for name, entry in layer_map.items():
        for m in entry["moves"]:
            expect(m in end_to_end or m in figures,
                   "layer_map %s moves unknown %s" % (name, m))
        for w in entry["workloads"]:
            expect(w in workloads, "layer_map %s names unknown %s" % (name, w))

    for workload in workloads:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            rc, result, err = run(workload, trace)
            check_result(workload, trace, rc, result, wanted)
            if rc != 0:
                sys.stderr.write(err[-2000:])

    rc, result, _ = run(workloads[0], 0, ["--corrupt"])
    expect(rc != 0, "corrupted answer: exit code 0")
    expect(result is not None and result.get("correct") is False,
           "corrupted answer: result not marked incorrect")

    if failures:
        print("selftest: %d failure(s)" % len(failures))
        return 1
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
