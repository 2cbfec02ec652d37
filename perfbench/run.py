#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it with the given arguments.

Usage, from the repository root:

    python3 perfbench/run.py --workload <cold_link|rwho_scan|reboot_cycle> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR, or to .bench_build/ when that is
unset. Cargo's output goes to standard error, so the benchmark's JSON
result stays the last line of standard output. Exits non-zero, printing
no result, when the build fails (for example when the repository's
crates are not beside this directory).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    bench = subprocess.run([os.path.join(target, "release", "perfbench"), *sys.argv[1:]], cwd=ROOT)
    return bench.returncode if bench.returncode > 0 else (1 if bench.returncode else 0)


if __name__ == "__main__":
    sys.exit(main())
