#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
pgf library and the benchmark (CMake, Release) into the directory named by
CARGO_TARGET_DIR, default .bench_build; later calls rebuild incrementally.
Build output goes to stderr, so the last stdout line is the benchmark's
JSON result. Exits non-zero when the sources are missing, the build fails,
any output is wrong, or the result does not list exactly the metrics
BENCHMARK.json declares for the mode.
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
WORKLOADS = ("serve-resident", "serve-paging", "ingest-recover")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("configure failed")
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")


def commit():
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    return os.environ.get("PERFBENCH_COMMIT", "unknown")


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    out = build_dir()
    build(out)
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode)
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        fail("--workload, --seed, --seconds and --trace are required")

    work = os.path.join(out, "work-%s-%d" % (args.workload, os.getpid()))
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", work,
           "--out", os.path.join(out, "out"), "--commit", commit()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        fail("workload exceeded %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(work, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if proc.returncode < 0:
        print("perfbench: benchmark process died from signal %s"
              % signal.Signals(-proc.returncode).name, file=sys.stderr)
        sys.exit(1)
    if proc.returncode != 0:
        sys.exit(proc.returncode)

    result = json.loads(lines[-1])
    want = declared_metrics(bool(args.trace))
    if want is not None and set(result["metrics"]) != want:
        print("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s"
              % (sorted(want - set(result["metrics"])),
                 sorted(set(result["metrics"]) - want)), file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
