#!/usr/bin/env python3
"""Build and run the LyriC benchmark.

    python3 perfbench/run.py --workload office_warm --seed 1 --seconds 30 --trace 0

Configures and builds perfbench/ (Release) into .bench_build/ at the root
of the checkout on first use, then runs one workload. The benchmark's
human summary goes to stderr; the last line of stdout is its JSON result.
LYRIC_* environment variables are dropped so that every run sees the
engine's defaults. The exit code is non-zero when the build fails, an
answer does not verify, or a workload self-check trips.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lyric_perfbench")
WORKLOADS = ("office_warm", "solver_cold", "durable_mixed")
# The run itself must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no LyriC sources under %s/src" % ROOT)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "lyric_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("run.py: build failed: %s" % err)

    env = {k: v for k, v in os.environ.items() if not k.startswith("LYRIC_")}
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(BUILD, "work")]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-%d.json" % (args.workload, args.seed))]
    try:
        result = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: %s did not finish in %d s" % (args.workload,
                                                         RUN_TIMEOUT_S))
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
