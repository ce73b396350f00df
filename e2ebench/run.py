#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source, then runs one workload.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload sgemm-summit --seed 20599 \
        --seconds 20 --trace 0

The build (CMake, the gpuvar library from src/ plus e2ebench/src) goes
to $CARGO_TARGET_DIR, or .bench_build when that is unset; campaign
stores, artifacts and per-run JSON go under its work/ directory. Build
output goes to standard error, so the last line of standard output is
the benchmark's JSON result. The reference-computation tests run after
every build and stop the run if they fail.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_quiet(cmd, env):
    """Runs a build step, echoing its output to stderr only on failure."""
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("e2ebench: %s failed (exit %d)\n"
                         % (" ".join(cmd[:3]), proc.returncode))
        sys.exit(proc.returncode or 1)
    return proc.stdout


def main():
    out_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                               or ".bench_build")
    build = os.path.join(out_root, "cmake")
    tmp = os.path.join(out_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)

    configured = any(os.path.exists(os.path.join(build, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", build,
                   "-DCMAKE_BUILD_TYPE=Release"] + generator, env)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    log = run_quiet(["cmake", "--build", build, "-j", jobs], env)
    if "no work to do" not in log:
        sys.stderr.write(log)
        run_quiet([os.path.join(build, "e2e_reference_test")], env)

    cmd = [os.path.join(build, "e2e_bench")] + sys.argv[1:] + [
        "--workdir", os.path.join(out_root, "work")]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()
