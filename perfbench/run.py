#!/usr/bin/env python3
"""Build and run the deltacol benchmark for one workload.

    python3 perfbench/run.py --workload large-reg8 --seed 1 --seconds 30 --trace 0

Run from the root of a source tree. The library is built from ../src with
perfbench/CMakeLists.txt into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). --trace 0 runs the plain program and prints the
end-to-end metrics; --trace 1 runs the probed program, prints the span self
times, writes the span file under <build dir>/traces/, and prints the
per-layer metrics. The last line of stdout is the result object; the metric
names and units in it are checked against BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("large-reg8", "det-torus", "luby-owner")
RUN_LIMIT_S = 170  # one program run; the whole command must end within 180 s


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(src_dir, build_dir, target):
    # The compiler's temporary files stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", src_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", build_dir, "--target", target,
                    "-j", "4"], check=True, stdout=sys.stderr, env=env)
    return os.path.join(build_dir, target)


def check_declared(root, result, traced):
    """The printed metrics must be exactly those BENCHMARK.json declares."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return
    with open(path) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if traced else "end_to_end"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        units = sorted(k for k in set(declared) & set(printed)
                       if declared[k] != printed[k])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, unit mismatch {units}", 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.exists(os.path.join(root, "src", "core", "api.h")):
        fail(f"no deltacol sources under {root}/src", 2)
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")

    target = "deltacol_perf_traced" if args.trace else "deltacol_perf"
    try:
        binary = build(here, build_dir, target)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"run exceeded {RUN_LIMIT_S} s")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    lines = out.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        fail(f"benchmark program exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark program printed no result line")
    check_declared(root, result, bool(args.trace))
    print(f"run took {time.monotonic() - start:.1f} s", file=sys.stderr)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
