#!/usr/bin/env python3
"""Build and run the CARAT KOP repository benchmark.

    python3 perfbench/run.py --workload sock_native --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which configures the repository's own CMake project)
into .bench_build/perfbench, runs the measuring binary, and relays its
output. The last line of stdout is the result object; with --trace 1 the
traced run's spans are written to .bench_build/spans/. See README.md.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO, "perfbench")
BUILD_DIR = os.path.join(REPO, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(REPO, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "kop_perfbench")
WORKLOADS = ("sock_native", "sock_kir", "mq_churn")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 175


def positive_int(text):
    value = int(text, 10)
    if value < 1 or value > 600:
        raise argparse.ArgumentTypeError("must be 1..600")
    return value


def seed_int(text):
    value = int(text, 10)
    if value < 0 or value >= 2**64:
        raise argparse.ArgumentTypeError("must be 0..2^64-1")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(allow_abbrev=False, description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=seed_int)
    parser.add_argument("--seconds", required=True, type=positive_int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    try:
        top, rev = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
            timeout=10).stdout.split()
        if os.path.realpath(top) == os.path.realpath(REPO):
            return rev
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for entry in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(REPO, entry)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, REPO).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    """Configure once, then build incrementally; serialized by a lock."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "..", "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "kop_perfbench", "-j", jobs])
        for step in steps:
            # Build chatter goes to stderr: stdout's last line is the result.
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              stdin=subprocess.DEVNULL).returncode != 0:
                return False
    return True


def main(argv):
    args = parse_args(argv)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--rev", source_rev()]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        command += ["--spans-out", os.path.join(
            SPANS_DIR, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             stdin=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print("perfbench: run failed (exit %d)" % run.returncode,
              file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        print("perfbench: malformed or incorrect result", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
