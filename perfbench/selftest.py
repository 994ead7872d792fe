#!/usr/bin/env python3
"""Self-test of the repository benchmark (a few minutes at most).

    python3 perfbench/selftest.py

Checks, through perfbench/run.py:
  - bad command lines and pinned-environment overrides exit nonzero;
  - a short run of every workload prints every end-to-end metric named in
    BENCHMARK.json (trace 0) and every per-layer metric (trace 1), each a
    finite number, with zero failed operations;
  - vcycles_per_pkt, vlat_p50_cycles and vlat_p99_cycles repeat bit for
    bit across two runs with the same seed, and vcycles_per_pkt differs
    under another seed.
"""
import json
import math
import os
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(REPO, "perfbench", "run.py")]
VIRTUAL = ("vcycles_per_pkt", "vlat_p50_cycles", "vlat_p99_cycles")


def run(args, env=None):
    return subprocess.run(RUN + args, capture_output=True, text=True,
                          cwd=REPO, env=env, timeout=600)


def result(workload, seed, trace):
    out = run(["--workload", workload, "--seed", str(seed), "--seconds", "2",
               "--trace", str(trace)])
    if out.returncode != 0:
        raise AssertionError("%s seed %d trace %d failed:\n%s" %
                             (workload, seed, trace, out.stderr[-2000:]))
    return json.loads(out.stdout.splitlines()[-1])


def check_metrics(workload, res, wanted):
    assert res["correct"] is True and res["failed"] == 0, (workload, res)
    assert res["attempted"] >= 1, (workload, res)
    metrics = res["metrics"]
    assert set(metrics) == {m["name"] for m in wanted}, (
        workload, sorted(set(metrics) ^ {m["name"] for m in wanted}))
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (workload, m["name"], got)
        assert isinstance(got["value"], (int, float)), (workload, m["name"])
        assert math.isfinite(got["value"]), (workload, m["name"], got)


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)

    good = ["--workload", "sock_native", "--seed", "1", "--seconds", "1",
            "--trace", "0"]
    bad_lines = [
        good + ["--packets=2000"],
        ["--workload", "sock_native", "--seed", "1x", "--seconds", "1",
         "--trace", "0"],
        ["--workload", "sock_native", "--seed", "1", "--seconds", "0",
         "--trace", "0"],
        ["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace",
         "0"],
        ["--workload", "sock_native", "--seed", "1", "--seconds", "1",
         "--trace", "2"],
        good[:-2],
    ]
    for args in bad_lines:
        assert run(args).returncode != 0, args
    for name in ("KOP_ENGINE", "KOP_ELIDE", "KOP_CFI", "KOP_VERIFY",
                 "KOP_RECOVERY", "KOP_WATCHDOG_STEPS", "KOP_SMP_CPUS"):
        env = dict(os.environ, **{name: "1"})
        out = run(good, env)
        assert out.returncode != 0 and name in out.stderr, name
    print("selftest: strict arguments and pinned environment ok")

    for w in bench["workloads"]:
        name = w["name"]
        first = result(name, 7, 0)
        again = result(name, 7, 0)
        other = result(name, 8, 0)
        for res in (first, again, other):
            check_metrics(name, res, bench["end_to_end"])
        for key in VIRTUAL:
            a = first["metrics"][key]["value"]
            b = again["metrics"][key]["value"]
            assert a == b, (name, key, a, b)
        assert (first["metrics"]["vcycles_per_pkt"]["value"] !=
                other["metrics"]["vcycles_per_pkt"]["value"]), name
        check_metrics(name, result(name, 7, 1), bench["per_layer"])
        print("selftest: %s ok" % name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
