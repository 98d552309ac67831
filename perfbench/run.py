#!/usr/bin/env python3
"""Repository benchmark: build vpcperf, run one workload, check it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: headline_sweep, bank_contention, service_flood.  The
workloads, metrics and the layer-to-metric map are described in
perfbench/README.md.

The benchmark program (perfbench/vpcperf) is built from the checkout's sources
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the
first run configures and compiles, later runs only check the build.
Scratch files go to a per-run directory under the build directory and
are removed afterwards; the traced run's spans are kept there as
trace-NAME-SEED.jsonl.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is non-zero when any
output check fails, and when the repository sources are missing.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every run must end within this many seconds, build excluded.
RUN_LIMIT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build vpcperf; return its path."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "vpcperf",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "vpcperf")


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"no repository sources next to {HERE}; nothing to measure")
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    # A relative scratch path keeps the daemon's Unix socket path short.
    workdir = os.path.relpath(
        os.path.join(build_dir, f"run-{os.getpid()}"), os.getcwd())
    cmd = [exe, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--workdir={workdir}",
           f"--reference={os.path.join(HERE, 'reference.txt')}",
           f"--commit={git_commit()}"]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"run exceeded {RUN_LIMIT_S} s; killed")
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out)
    log(f"{args.workload} seed {args.seed}: exit {proc.returncode} "
        f"after {time.monotonic() - start:.1f} s")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
