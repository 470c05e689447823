#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload encode-hdl64 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py compare parent.jsonl change.jsonl

The Go program in this directory is built from source into .bench_build
(the Go build and module caches live there too, so nothing outside the
checkout is read or written), then replaces this process, so the exit
code and output are the benchmark's own.
"""
import os
import subprocess
import sys


def revision(root, env):
    """Return the checkout's git revision ("+dirty" when it has local
    changes), or "unknown" outside a repository."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode != 0:
            return "unknown"
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
                               env=env, capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    # Build output goes to stderr: stdout is the benchmark's result.
    env["PERFBENCH_COMMIT"] = revision(root, env)
    built = subprocess.run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(built.returncode or 1)
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
