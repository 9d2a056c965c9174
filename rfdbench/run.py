#!/usr/bin/env python3
"""rfdnet benchmark runner.

Builds the benchmark package (rfdbench/CMakeLists.txt: the library from
src/, the rfdnetd daemon and the rfdbench workload runner) and runs one
workload, or all of them, each in its own process.

One workload (the last stdout line is the JSON result object):

    python3 rfdbench/run.py --workload paper_sweeps --seed 1 --seconds 15 --trace 0

Every workload, with a summary table of every metric, by name and unit:

    python3 rfdbench/run.py --all [--seed 1] [--seconds 15] [--runs 1] \
        [--trace 0] [--out runs.jsonl]

`--runs K` repeats each workload with seeds seed..seed+K-1; `--out` appends
one JSON line per run ({"workload","seed","trace","result"}) for
rfdbench/compare.py. The exit status is non-zero when any output check
fails or the build fails.

The build goes to $CARGO_TARGET_DIR when set, else .bench_build, relative
to the directory the command runs in.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out_dir):
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out_dir, "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("rfdbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def host_fingerprint(out_dir):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = "unknown"
    build_type = "unknown"
    try:
        with open(os.path.join(out_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
                elif line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "host: nproc=%d cpu=%s compiler=%s build_type=%s" % (
        os.cpu_count() or 1, cpu, compiler, build_type)


def socket_dir(out_dir):
    # AF_UNIX paths are capped near 108 bytes; a relative path keeps it short.
    rel = os.path.relpath(out_dir)
    return rel if len(rel) < 60 else "."


def run_one(out_dir, workload, seed, seconds, trace):
    """Runs one workload process; returns (exit code, stdout lines)."""
    cmd = [os.path.join(out_dir, "rfdbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--daemon", os.path.join(out_dir, "rfdnetd"),
           "--socket-dir", socket_dir(out_dir)]
    # Its own process group, so a run that overstays is stopped together
    # with the daemon it spawned.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    # The measured phase lasts `seconds`; set-up, checks and the traced
    # passes add a fixed part. A run that overstays this is stopped.
    try:
        out, _ = proc.communicate(timeout=110 + 4 * seconds)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        print("rfdbench: %s timed out" % workload, file=sys.stderr)
    return proc.returncode, out.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--runs", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    if bool(args.workload) == bool(args.all):
        ap.error("give exactly one of --workload NAME and --all")

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    if args.workload and args.workload not in names:
        ap.error("unknown workload %r (expected one of %s)"
                 % (args.workload, ", ".join(names)))

    out_dir = build_dir()
    if not build(out_dir):
        return 2
    fingerprint = host_fingerprint(out_dir)

    if args.workload:
        print(fingerprint, flush=True)
        code, lines = run_one(out_dir, args.workload, args.seed, seconds,
                              args.trace)
        result = parse_result(lines)
        body = lines[:-1] if result is not None else lines
        for line in body:
            print(line)
        if result is None:
            print("rfdbench: no result line (exit %d)" % code, file=sys.stderr)
            return code or 1
        print(json.dumps(result, separators=(",", ":")), flush=True)
        return code

    print(fingerprint)
    failed = False
    for name in names:
        for k in range(args.runs):
            seed = args.seed + k
            start = time.time()
            code, lines = run_one(out_dir, name, seed, seconds, args.trace)
            result = parse_result(lines)
            ok = code == 0 and result is not None and result["correct"]
            failed = failed or not ok
            if not ok:
                print("\n".join(lines[-20:]))
            if args.out and result is not None:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": name, "seed": seed,
                                        "trace": args.trace,
                                        "result": result}) + "\n")
            status = "ok" if ok else "FAILED"
            print("== %s seed %d: %s, attempted %s, failed %s (%.1f s)" % (
                name, seed, status,
                result["attempted"] if result else "-",
                result["failed"] if result else "-", time.time() - start),
                flush=True)
            if result is not None:
                for metric, m in result["metrics"].items():
                    print("   %-28s %18.6g %s" % (metric, m["value"],
                                                  m["unit"]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
