#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-gset-burst --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

It builds perfbench/bench.exe with dune, runs it, and checks that the
result line (the last line of standard output) reports exactly the
metrics BENCHMARK.json lists for the requested trace mode, with their
units.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        return fail("run from the root of a crdtsync checkout (no dune-project or lib/ here)")
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune not found on PATH")
    proc = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if proc.returncode != 0:
        return fail(f"build failed (dune exit {proc.returncode})")
    return 0


def run_bench(argv):
    """Run bench.exe in its own process group; on timeout kill the whole
    group (the replica processes included) and wait for it."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        shutil.rmtree(".perfbench", ignore_errors=True)
        return None, fail(f"benchmark exceeded {RUN_TIMEOUT_S}s")
    return out, proc.returncode


def check_result(out, trace):
    lines = out.strip().splitlines()
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != wanted:
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        units = sorted(k for k in set(got) & set(wanted) if got[k] != wanted[k])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit mismatch {units}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true", help="run the ledger attribution self-test")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        return fail("--workload, --seed, --seconds and --trace are required")
    rc = build()
    if rc != 0:
        return rc
    if args.selftest:
        return subprocess.call([EXE, "selftest"])
    out, rc = run_bench(
        [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)]
    )
    if out is None:
        return rc
    if rc != 0:
        sys.stderr.write(out)
        return fail(f"bench.exe exited with code {rc}", rc)
    problem = check_result(out, args.trace)
    if problem:
        sys.stderr.write(out)
        return fail(problem, 3)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
