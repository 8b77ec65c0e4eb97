#!/usr/bin/env python3
"""Build and run one benchmark workload.

    python3 perfbench/run.py --workload <build_lookup|serve_read|serve_ingest>
        --seed N --seconds S --trace <0|1> [--inject-wrong-answer]

Run from the repository root. Builds the benchmark package and the stock
`serve` binary (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the workload. The last line of standard output
is the result object; the exit code is non-zero on a build failure, a
wrong answer, or a run that exceeds its time limit.
"""

import os
import signal
import subprocess
import sys

# One run must end within this many seconds, build excluded.
RUN_LIMIT_S = 170


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "ist-serve", "--bin", "serve"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(3)


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build(target)
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), *sys.argv[1:],
           "--serve-bin", os.path.join(release, "serve")]
    # Its own process group, so a timeout can stop the server it starts.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_LIMIT_S)
        sys.exit(4)
    sys.exit(code)


if __name__ == "__main__":
    main()
