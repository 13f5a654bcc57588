#!/usr/bin/env python3
"""Benchmark entry point: build the program from source, run one workload.

    python3 perf/run.py --workload offline|online|serve --seed N \
        --seconds S --trace 0|1

Builds the repository's libraries, the dfrouted daemon and perf_driver in
Release mode under .bench_build/ (incremental after the first run), then
runs perf_driver pinned to one CPU (the daemon it spawns inherits the pin).
Everything perf_driver prints is passed through; its last line is the JSON
result. Exits non-zero, without a result line, when the build or the run
fails, and non-zero with a result line when an operation or answer check
failed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
RUN_DIR = BUILD / "run"
WORKLOADS = ("offline", "online", "serve")
RUN_TIMEOUT_S = 170  # the contract allows 180 s per run


def fail(message):
    print(f"perf/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def allowed_cpus():
    return sorted(os.sched_getaffinity(0))


def build(targets=("perf_driver", "dfrouted")):
    """Configures (first time) and builds `targets`; returns the build dir."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to perf/ (looked in {ROOT})")
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        if not (CMAKE_DIR / "CMakeCache.txt").is_file():
            configure = [
                "cmake", "-S", str(ROOT), "-B", str(CMAKE_DIR),
                "-DCMAKE_BUILD_TYPE=Release",
                f"-DCMAKE_PROJECT_INCLUDE={ROOT / 'perf' / 'hook.cmake'}",
            ]
            if subprocess.call(configure, stdout=log, stderr=log) != 0:
                fail(f"cmake configure failed, see {log_path}")
        jobs = str(max(1, len(allowed_cpus())))
        cmd = ["cmake", "--build", str(CMAKE_DIR), "-j", jobs, "--target",
               *targets]
        if subprocess.call(cmd, stdout=log, stderr=log) != 0:
            fail(f"build failed, see {log_path}")
    return CMAKE_DIR


def run_driver(args):
    build_dir = build()
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    cpu = allowed_cpus()[-1]
    cmd = [
        str(build_dir / "perf" / "perf_driver"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--dfrouted={build_dir / 'tools' / 'dfrouted'}",
        # Relative, so the unix socket path stays short in a deep checkout.
        f"--run-dir={os.path.relpath(RUN_DIR, ROOT)}",
    ]
    # A session of its own, so a timeout, or a signal to this script, can
    # kill perf_driver and the daemon it spawned together.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))

    def kill_session(*_):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_signal(signum, _frame):
        kill_session()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_session()
        proc.communicate()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        # Reap anything left in the session (a daemon perf_driver could not
        # stop); perf_driver itself has exited here.
        kill_session()
    lines = out.rstrip("\n").split("\n") if out else []
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stdout.write(out or "")
        fail(f"perf_driver exited {proc.returncode} without a result line")
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    sys.exit(run_driver(args))


if __name__ == "__main__":
    main()
