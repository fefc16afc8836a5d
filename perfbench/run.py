#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the Go program in perfbench/ (a module of its own that
replaces `dynocache` with the repository root) and runs it from the
repository root with the given arguments. Everything the build writes --
the Go build cache and the binary -- goes under .bench_build/ in the
repository, and the benchmark's own outputs go under .bench_out/. The
exit code is the benchmark's; a failed build exits 1 without a result.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD_DIR, "gocache"),
        GOPATH=os.path.join(BUILD_DIR, "gopath"),
        # Go's telemetry counters live under the user config directory.
        XDG_CONFIG_HOME=os.path.join(BUILD_DIR, "config"),
        # The commit is recorded by commit() instead: stamping it at build
        # time fails outright when the checkout sits in another git tree.
        GOFLAGS="-mod=mod -buildvcs=false",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOPROXY="off",
    )
    return env


def commit():
    """The checkout's git commit, read from its own .git directory without
    running git (which would look outside the checkout), or ""."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return ""


def main():
    os.makedirs(BUILD_DIR, exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=BENCH_DIR,
        env=go_env(),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    env = dict(os.environ, PERFBENCH_COMMIT=commit())
    return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
