#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <serve_hotpath|usecase_federation|
        stream_ingest> --seed N --seconds S --trace 0|1

The build lives in $CARGO_TARGET_DIR/perfbench (default .bench_build) inside
the checkout, and scratch state (WAL directories) in its work/ directory.
Build output goes to stderr. BENCHMARK.json is the one list of metric names
and units: the program reports values by name, and this script prints each
metric of the run's section with its unit and sample count, then the JSON
result as the last line of standard output. A per-layer metric the
workload does not report reads 0 (its layer is idle there). The exit code
is non-zero when the build, the harness's own test, an output check or the
name check fails.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def call(cmd, timeout, stdout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"run.py: {cmd[0]} exceeded {timeout} s")
    return proc.returncode, out


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "build.ninja")) and \
            not os.path.exists(os.path.join(build_dir, "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        code, _ = call(["cmake", "-S", HERE, "-B", build_dir, *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            sys.exit("run.py: cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    code, _ = call(["cmake", "--build", build_dir, "-j", jobs],
                   BUILD_TIMEOUT_S, sys.stderr)
    if code != 0:
        sys.exit("run.py: build failed")
    code, _ = call([os.path.join(build_dir, "perfbench_test")], 60, sys.stderr)
    if code != 0:
        sys.exit("run.py: perfbench_test failed")


def result_line(raw, trace):
    """The contract's result: raw values with BENCHMARK.json's units.

    Returns (report lines, result line), or raises ValueError when the
    program reports a name the section does not list, or misses an
    end-to-end metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        section = json.load(f)["per_layer" if trace else "end_to_end"]
    values = raw["metrics"]
    unknown = sorted(set(values) - {m["name"] for m in section})
    missing = sorted({m["name"] for m in section} - set(values))
    if unknown or (missing and not trace):
        raise ValueError(f"metrics differ from BENCHMARK.json: unknown "
                         f"{unknown}, missing {missing}")
    report, metrics = [], {}
    for m in section:
        value = values.get(m["name"], 0.0)
        n = raw["samples"].get(m["name"])
        report.append(f"  {m['name']:38s} {value:14.6g} {m['unit']:9s}"
                      + (f" n={n}" if n is not None else ""))
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {"correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    return report, json.dumps(result)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)
    work_dir = os.path.join(build_dir, "work")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)

    code, out = call([os.path.join(build_dir, "perfbench"),
                      "--workload", args.workload, "--seed", args.seed,
                      "--seconds", args.seconds, "--trace", args.trace,
                      "--work-dir", work_dir],
                     RUN_TIMEOUT_S, subprocess.PIPE)
    shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.decode().strip().splitlines()
    if not lines:
        sys.exit(f"run.py: perfbench printed nothing (exit code {code})")
    print("\n".join(lines[:-1]))
    try:
        report, result = result_line(json.loads(lines[-1]),
                                     args.trace == "1")
    except (ValueError, KeyError) as e:
        sys.exit(f"run.py: {e}")
    print("\n".join(report))
    print(result)
    sys.exit(code)


if __name__ == "__main__":
    main()
