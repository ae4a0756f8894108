#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the program and the measuring
binary from source into .bench_build/ (an incremental no-op after the first
run), then runs one measurement and relays its output; the last line of
stdout is the JSON result.  Exits non-zero, printing no result, when the
build or the measurement fails.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("study_ds1", "study_ds3", "serve_mix", "tenant_delta")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def clean_env():
    """The caller's environment minus every EUS_* knob."""
    return {k: v for k, v in os.environ.items() if not k.startswith("EUS_")}


def build(root, build_dir):
    source = root / "perfbench"
    log_path = build_dir / "build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(log_path, "w") as log:
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(source), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.call(configure, stdout=log, stderr=log,
                               env=clean_env()) != 0:
                # A half-configured tree would skip configuration next time.
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                return False, log_path
        ok = subprocess.call(
            ["cmake", "--build", str(build_dir), "-j", BUILD_JOBS],
            stdout=log, stderr=log, env=clean_env()) == 0
    return ok, log_path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",),
                        help="one workload, or all four in turn (the last "
                             "line then maps each workload to its result)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "perfbench" / "CMakeLists.txt").is_file():
        fail("run from the root of a checkout (perfbench/ not found)")
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("no program sources (src/) in this checkout")

    build_dir = root / ".bench_build" / "perfbench"
    ok, log_path = build(root, build_dir)
    if not ok:
        sys.stderr.write(log_path.read_text()[-4000:])
        fail("build failed")

    if args.workload != "all":
        lines, _ = measure(root, build_dir, args.workload, args)
        print("\n".join(lines))
        return 0
    results = {}
    for workload in WORKLOADS:
        lines, results[workload] = measure(root, build_dir, workload, args)
        print(f"== {workload} ==")
        print("\n".join(lines[:-1]))
    print(json.dumps(results))
    return 0


def measure(root, build_dir, workload, args):
    """Runs one measurement; returns its output lines and parsed result."""
    work_dir = root / ".bench_build" / "work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    command = [str(build_dir / "eus_perfbench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--bin-dir", str(build_dir / "tools"),
               "--work-dir", str(work_dir)]
    # Own process group, so a timeout also takes down the daemons the
    # measurement spawned.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            env=clean_env(), start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("measurement timed out")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(stdout)
        fail(f"measurement exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        sys.stderr.write(stdout)
        fail("measurement printed no result")
    return lines, result


if __name__ == "__main__":
    sys.exit(main())
