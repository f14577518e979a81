#!/usr/bin/env python3
"""Builds the dbps benchmark from source and runs one workload.

    python3 perfbench/run.py --workload fire_contended|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build); build output goes to stderr. Prints a JSON line of
run facts, then, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}. Exits non-zero without a
result when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_timeout_s(seconds):
    # Every measured round is followed by an idle gap as long as itself,
    # and each round also replays, recovers and audits its output.
    return 3 * seconds + 60


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no dbps sources next to the benchmark; nothing to build")
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", cmake_dir, "-j",
                    str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "perfbench")


def git_sha():
    # Stop git's repository search at the checkout: outside a git checkout
    # the sha is unknown, not that of some enclosing repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def ordered_metrics(measured, trace):
    """The declared metrics in declared order, with declared units.

    An end-to-end metric must have been measured. A per-layer metric the
    workload does not exercise reads 0. A measured name that is not
    declared is an error, so a misspelt metric cannot silently read 0.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        fail("metrics not in BENCHMARK.json: " + ", ".join(sorted(unknown)))
    metrics = {}
    for m in declared:
        if m["name"] in measured:
            value = measured[m["name"]]["value"]
        elif trace:
            value = 0
        else:
            fail("metric not measured: " + m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["fire_contended", "serve_mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    workdir = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    timeout_s = run_timeout_s(args.seconds)
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            capture_output=True, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % timeout_s)
    finally:
        # Keep the trace of a traced run; drop WAL scratch files.
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        kept = []
        for name in os.listdir(workdir):
            if name.startswith("trace-"):
                kept.append(os.path.join(traces, name))
                shutil.move(os.path.join(workdir, name), kept[-1])
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("benchmark printed no result")
    facts = json.loads(lines[-2])
    facts["git_sha"] = git_sha()
    if kept:
        facts["trace_file"] = kept[0]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    if result["correct"]:
        result["metrics"] = ordered_metrics(result["metrics"], args.trace)
    print(json.dumps(facts, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
