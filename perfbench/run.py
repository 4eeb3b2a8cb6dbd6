#!/usr/bin/env python3
"""Builds and runs the AIMS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from ../src) into the build
directory: $CARGO_TARGET_DIR when set, else .bench_build. Later calls only
re-check the build. The benchmark's own JSON result is the last line of
standard output; build logs and progress go to standard error.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ["capture_durable_800hz", "analysis_mem_100hz", "live_recognition_800hz"]
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, path)) if not os.path.isabs(path) else path


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no AIMS source tree next to perfbench/ (src/ missing)")
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
                     + generator)
    steps.append(["cmake", "--build", out, "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed (" + " ".join(cmd) + ")")
    return os.path.join(out, "aims_perfbench")


def run_once(binary, args):
    """Runs the binary; returns (exit code, stdout lines)."""
    work_dir = os.path.join(build_dir(), "perfbench-run")
    cmd = [binary] + args + ["--work-dir", work_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write("perfbench: run timed out\n")
        return 124, []
    return proc.returncode, out.splitlines()


def self_test(binary):
    """Tiny runs of every workload: every metric present, finite and with
    its unit, and a corrupted expected answer is caught."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in WORKLOADS:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines = run_once(binary, ["--workload", workload, "--seed", "1",
                                            "--seconds", "1", "--trace", trace, "--small"])
            result = json.loads(lines[-1]) if lines else {}
            metrics = result.get("metrics", {})
            for m in spec[key]:
                got = metrics.get(m["name"])
                if (got is None or got.get("unit") != m["unit"]
                        or not isinstance(got.get("value"), (int, float))
                        or not math.isfinite(got["value"])):
                    print(f"FAIL {workload} trace={trace}: metric {m['name']} -> {got}")
                    ok = False
            if code != 0 or result.get("correct") is not True or result.get("failed") != 0:
                print(f"FAIL {workload} trace={trace}: exit {code}, result {lines[-1:]}")
                ok = False
            else:
                print(f"ok   {workload} trace={trace}: {len(metrics)} metrics")
        code, lines = run_once(binary, ["--workload", workload, "--seed", "1", "--seconds",
                                        "1", "--trace", "0", "--small", "--corrupt-expected"])
        result = json.loads(lines[-1]) if lines else {}
        if code == 0 or result.get("correct") is not False or result.get("failed", 0) < 1:
            print(f"FAIL {workload}: a corrupted expected answer was not caught")
            ok = False
        else:
            print(f"ok   {workload}: corrupted expected answer caught")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    binary = build()
    if args.self_test:
        return self_test(binary)
    code, lines = run_once(binary, ["--workload", args.workload, "--seed", str(args.seed),
                                    "--seconds", str(args.seconds), "--trace", args.trace])
    for line in lines:
        print(line)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
