#!/usr/bin/env python3
"""Runs one benchmark workload and prints its JSON result as the last line.

    python3 perfbench/run.py --workload study_batch --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
STIR libraries, stir_cli, stir_serve and the benchmark driver from source
into $CARGO_TARGET_DIR (default .bench_build); later runs only re-check
the build. Generated corpora, reports, the server's metrics snapshot and
(with --trace 1) a Chrome trace are left in .bench_work/<workload>/.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("study_batch", "serve_read", "stream_mixed")


def build(build_dir):
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", "perfbench", "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                stdout=log, stderr=subprocess.STDOUT, check=True)
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", "4", "--target",
             "perfbench_driver", "stir_cli", "stir_serve"],
            stdout=log, stderr=subprocess.STDOUT, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        sys.exit("run.py: no STIR sources under ./src; run from the "
                 "repository root")
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.stderr.write(f"run.py: build failed ({err}); see "
                         f"{build_dir}/build.log\n")
        sys.exit(1)

    work = os.path.join(".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tools = os.path.join(build_dir, "stir_tools")
    command = [
        os.path.join(build_dir, "perfbench_driver"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--cli", os.path.join(tools, "stir_cli"),
        "--serve", os.path.join(tools, "stir_serve"),
        "--work", work,
    ]
    # The driver starts stir_serve and stir_cli children; its own process
    # group lets a timeout take them down with it.
    driver = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        stdout, _ = driver.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.communicate()
        sys.exit("run.py: driver timed out")
    finally:
        try:
            os.killpg(driver.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if driver.returncode != 0 or not lines:
        sys.exit(f"run.py: driver exited {driver.returncode}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
