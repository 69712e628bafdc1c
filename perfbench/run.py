#!/usr/bin/env python3
"""Builds and runs the repository's benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare OLD NEW

The first form builds the `mcc-perfbench` package (into
$CARGO_TARGET_DIR, default `.bench_build`), runs one workload, checks
that the printed metrics are exactly the ones BENCHMARK.json names, keeps
the result under perfbench/out/, and prints it as the last stdout line.

The second form compares two result files or directories of them,
workload by workload, on the medians of the end-to-end metrics, against
the bounds in BENCHMARK.json. Results from different hosts (CPU model or
core count differ, or the sides' median calibration scores are more than
15% apart) are reported as non-comparable and not gated.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CALIBRATION_TOLERANCE = 0.15


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "mcc-perfbench")


def check_result(result, expected):
    """The result line's keys and metric set, against BENCHMARK.json."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "result keys are %s" % sorted(result)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        return "metrics differ from BENCHMARK.json: %s" % sorted(set(got.items()) ^ set(want.items()))
    return None


def run(argv):
    spec = load_spec()
    opts = dict(zip(argv[::2], argv[1::2]))
    if len(argv) % 2 or set(opts) != {"--workload", "--seed", "--seconds", "--trace"}:
        sys.exit("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    if opts["--workload"] not in {w["name"] for w in spec["workloads"]}:
        sys.exit("perfbench: unknown workload %s" % opts["--workload"])
    binary = build()
    os.makedirs(OUT, exist_ok=True)
    proc = subprocess.run([binary] + argv + ["--out", OUT], stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit("perfbench: benchmark exited with code %d" % proc.returncode)
    host, result = json.loads(lines[-2]), json.loads(lines[-1])
    expected = spec["per_layer" if opts["--trace"] == "1" else "end_to_end"]
    problem = check_result(result, expected)
    if problem:
        sys.exit("perfbench: " + problem)
    name = "result-%s-seed%s-trace%s.json" % (opts["--workload"], opts["--seed"], opts["--trace"])
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(dict(host, result=result), f, indent=1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


def load_results(path):
    files = [path]
    if os.path.isdir(path):
        files = [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.startswith("result-")]
    results = []
    for f in files:
        with open(f) as fh:
            results.append(json.load(fh))
    return [r for r in results if r.get("trace") == 0]


def same_host(a, b):
    """Two sets of results come from the same kind of host in the same
    state: one CPU model and core count, and median calibration scores
    within the tolerance (single scores swing too much on a shared VM)."""
    models = {(r["host"]["cpu_model"], r["host"]["nproc"]) for r in a + b}
    if len(models) != 1:
        return False
    ca = statistics.median(r["host"]["calibration_mops"] for r in a)
    cb = statistics.median(r["host"]["calibration_mops"] for r in b)
    return abs(ca - cb) <= CALIBRATION_TOLERANCE * max(ca, cb)


def compare(old_path, new_path):
    spec = load_spec()
    old, new = load_results(old_path), load_results(new_path)
    regressions = 0
    for workload in sorted({r["workload"] for r in old} & {r["workload"] for r in new}):
        a = [r for r in old if r["workload"] == workload]
        b = [r for r in new if r["workload"] == workload]
        if not same_host(a, b):
            print("%s: non-comparable (results come from different hosts); not gated" % workload)
            continue
        for m in spec["end_to_end"]:
            ma = statistics.median(r["result"]["metrics"][m["name"]]["value"] for r in a)
            mb = statistics.median(r["result"]["metrics"][m["name"]]["value"] for r in b)
            change = (mb - ma) / abs(ma) if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > m["bound"] else "ok"
            regressions += verdict != "ok"
            print("%s %s: %.6g -> %.6g %s (%+.1f%%, bound %.0f%%) %s" % (
                workload, m["name"], ma, mb, m["unit"], 100 * change, 100 * m["bound"], verdict))
    sys.exit(1 if regressions else 0)


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["--compare"] and len(argv) == 3:
        compare(argv[1], argv[2])
    else:
        run(argv)


if __name__ == "__main__":
    main()
