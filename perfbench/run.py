#!/usr/bin/env python3
"""Build and run the sqlml benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <stream-cold|insql-dfs|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build` under the current directory), then runs it with
the same arguments. Its standard output ends with the one-line JSON
result. Spill files go to `<target>/perfbench-tmp`, and a traced run
writes its spans to `<target>/perfbench-traces/<workload>-seed<n>.json`
(Chrome trace-event format). Exits non-zero, printing no result, if the
build or the run fails.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def flag(args, name):
    """The value following `name` in `args`, or None."""
    if name in args:
        i = args.index(name)
        if i + 1 < len(args):
            return args[i + 1]
    return None


def run(cmd, env, timeout, stdout=None):
    """Run `cmd` in its own process group; kill the whole group on
    timeout. Returns the exit code (non-zero on timeout)."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1


def main(args):
    root = Path.cwd()
    bench = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))

    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(bench / "Cargo.toml"),
    ]
    if run(build, env, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    tmp = target / "perfbench-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    cmd = [str(target / "release" / "sqlml-perfbench"), *args]
    if flag(args, "--trace") == "1":
        name = f"{flag(args, '--workload')}-seed{flag(args, '--seed')}.json"
        cmd += ["--trace-out", str(target / "perfbench-traces" / name)]
    sys.stdout.flush()
    return run(cmd, env, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
