#!/usr/bin/env python3
"""Entry point of the session-path benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fanout_dashboards --seed 1 --seconds 60 --trace 0

It builds the library and the benchmark program (kspot_perfbench) from
source (CMake, Release) into $CARGO_TARGET_DIR or .bench_build and runs one
workload. It checks that the printed metrics are exactly the ones
BENCHMARK.json lists for the mode, then prints the program's JSON result as
the last line of stdout. Build output and diagnostics go to stderr. Exit
status: the program's (0 = every check passed), or 2 when the sources are
missing or the build fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and os.path.realpath(home[0]) != os.path.realpath(HERE):
            # A cache configured for another checkout: start over.
            os.remove(cache)
            shutil.rmtree(os.path.join(build_dir, "CMakeFiles"), ignore_errors=True)
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "kspot_perfbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "kspot_perfbench")


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload (smoke test only; metrics are not comparable)")
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kspot", "coordinator.hpp")):
        fail("run from the repository root: src/kspot/coordinator.hpp not found")
    if not os.path.isfile(os.path.join(root, "BENCHMARK.json")):
        fail("BENCHMARK.json not found in the working directory")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 2 or not lines:
        fail(f"kspot_perfbench exited with {proc.returncode} and no result")
    result = json.loads(lines[-1])

    want = expected_metrics(root, args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing={missing} extra={extra} "
             f"unit mismatches={units}", 1)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
