#!/usr/bin/env python3
"""Entry point of the xust serving benchmark.

Run from the root of a source checkout:

    python3 xbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `xust` binary and the benchmark binary `xbench` (`xbench/`, a
cargo package of its own) in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs `xbench`, which starts `xust serve`,
measures, verifies every reply, and prints the JSON result as the last
line of stdout. Build output goes to stderr. Exits non-zero when the
build fails, a run fails, or any reply is wrong.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("adhoc_transform", "hot_write_views", "many_small_docs")


def build(target_dir):
    # Compiler and linker scratch files stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(".bench_tmp", "build-tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir, TMPDIR=tmp)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "xust"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("xbench", "Cargo.toml")],
    ):
        subprocess.run(cmd, env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def run_bench(cmd):
    """Runs `xbench` in its own process group, so a timeout also stops
    the server it started."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("xbench: run timed out", file=sys.stderr)
        return 3
    finally:
        # `xbench` stops its servers; this catches any it could not.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.stdout.write(out.decode("utf-8", "replace"))
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("xbench: run from the root of a xust source checkout", file=sys.stderr)
        return 2
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        build(target_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"xbench: build failed: {e}", file=sys.stderr)
        return 2
    release = os.path.join(target_dir, "release")
    return run_bench([
        os.path.join(release, "xbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--xust", os.path.join(release, "xust"),
        "--workdir", ".bench_tmp",
    ])


if __name__ == "__main__":
    sys.exit(main())
