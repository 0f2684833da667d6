#!/usr/bin/env python3
"""Build the perfbench Go package from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload fig14-exact --seed 0 --seconds 30 --trace 0

Every argument is passed to the benchmark binary. The Go build cache,
module cache, temporary files and the binary all live under
.bench_build/ in the current directory, so a run reads and writes
nothing outside the checkout. The build needs no network: perfbench
depends only on the repository module next to it. If the build fails
(for example when the repository sources are missing) the script exits
with the build's status and prints no result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    pkg = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    dirs = {
        "GOCACHE": "go-cache",
        "GOPATH": "gopath",
        "GOMODCACHE": "gopath/pkg/mod",
        "GOTMPDIR": "tmp",
        "XDG_CONFIG_HOME": "config",
        "XDG_CACHE_HOME": "cache",
    }
    for var, sub in dirs.items():
        path = os.path.join(build, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env.update(GOPROXY="off", GOTOOLCHAIN="local", GOFLAGS="", GOWORK="off")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=pkg, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
