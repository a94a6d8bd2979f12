#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the program and the benchmark drivers
from source (CMake, RelWithDebInfo) into $CARGO_TARGET_DIR or .bench_build,
runs one workload and prints its result as one JSON object on the last line
of standard output. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics of a separate traced run.
Build logs and diagnostics go to standard error.
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
WORKLOADS = ("scenario-library", "cesm-session", "serve-mixed")


def run_timeout_s(seconds):
    """Driver time limit: a fixed allowance for set-up, the traced replays and
    the output checks, plus twice the measured time (the checks replay a log
    that grows with it). 170 s at the default 30 s."""
    return 110 + 2 * seconds


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir, targets):
    """Configures once, then brings the given targets up to date."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs, "--target", *targets],
        check=True, stdout=sys.stderr)


def run_driver(cmd, timeout):
    """Runs the driver in its own process group, so a timeout also stops the
    daemon it spawned; returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"timed out after {timeout:g} s")
        return 1, ""
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("program sources (src/) not found next to perfbench/")
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    driver = "perfbench_layers" if a.trace else "perfbench_e2e"
    try:
        build(build_dir, [driver, "rca-tool"])
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    work_dir = os.path.join(build_dir, "work", f"{a.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, driver),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--work-dir", work_dir,
           "--rca-tool", os.path.join(build_dir, "rca_apps", "rca-tool")]
    try:
        code, out = run_driver(cmd, run_timeout_s(a.seconds))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        log(f"{driver} exited with {code}")
        return 1
    try:
        json.loads(lines[-1])
    except json.JSONDecodeError:
        log("driver printed no result line")
        return 1
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
