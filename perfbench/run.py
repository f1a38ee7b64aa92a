#!/usr/bin/env python3
"""Build and run the cimon benchmark from the root of a checkout.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 10 --trace 0

`--workload all` runs the four workloads one after another.

Builds the shipped `cimon-serve` binary (repository workspace) and the
`perfbench` package (its own workspace) into $CARGO_TARGET_DIR, or
`target/` when that is unset, then runs one workload. Every metric is
printed as a `name = value unit (n=...)` line; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Build output goes to standard error. `--bless` rewrites the
workload's golden file in `perfbench/golden/` instead of checking it.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["paper-grid", "long-run", "fault-campaign", "serve-journaled"]
# The driver allows 180 s per run; stop a wedged run well before that.
RUN_TIMEOUT_S = 170


def build(env):
    commands = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "cimon-serve", "--bin", "cimon-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in commands:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--bless", action="store_true")
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(env):
        return 1
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    failures = [w for w in workloads if run(w, args, target) != 0]
    if failures:
        print("run.py: failed: " + " ".join(failures), file=sys.stderr)
    return 1 if failures else 0


def run(workload, args, target):
    release = os.path.join(target, "release")
    scratch = os.path.join(target, "perfbench-scratch", str(os.getpid()))
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", scratch,
        "--serve-bin", os.path.join(release, "cimon-serve"),
    ]
    if args.bless:
        cmd.append("--bless")
    # A session of its own, so a timeout can stop the benchmark and the
    # server it spawned together.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
