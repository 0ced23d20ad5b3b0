#!/usr/bin/env python3
"""Build gaplan and its benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Both the `gaplan` binary (the program under test) and the `perfbench`
load process are built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build` at the repository root). Build
output goes to stderr; the benchmark's stdout, whose last line is the JSON
result, passes through unchanged. Any build or run failure exits non-zero
without printing a result.
"""

import os
import signal
import subprocess
import sys

# A run is budgeted at 180 s; keep the load process inside it.
RUN_TIMEOUT_S = 170


def main() -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    root_manifest = os.path.join(root, "Cargo.toml")
    if not os.path.isfile(root_manifest) or not os.path.isdir(os.path.join(root, "crates")):
        print(f"perfbench: no gaplan sources at {root}", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")

    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", root_manifest, "--bin", "gaplan"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path",
         os.path.join(bench_dir, "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    work = os.path.join(target, "perfbench-work")
    os.makedirs(work, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--root", root,
        "--gaplan", os.path.join(target, "release", "gaplan"),
        "--work-dir", work,
        *sys.argv[1:],
    ]
    # Own process group, so a timed-out run takes its server with it.
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
