#!/usr/bin/env python3
"""Build fairhms and the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold_solve|hot_hits|mixed_rw \
        --seed N --seconds S --trace 0|1

Builds go to $CARGO_TARGET_DIR (default .bench_build). The last line of
standard output is the benchmark's JSON result; everything else (cargo
output, warnings) goes to standard error. Exits non-zero, without a
result, if either build fails or the run errors out.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def scrubbed_env(target):
    """The caller's environment minus every FAIRHMS_TEST_* hook."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FAIRHMS_TEST_")}
    env["CARGO_TARGET_DIR"] = target
    return env


def build(manifest, extra, env):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest] + extra
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def revision():
    """Git revision if this is a git checkout, else a digest of the sources."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            for f in fs if "target" not in os.path.relpath(d, ROOT).split(os.sep))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    target = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    env = scrubbed_env(target)
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not os.path.isfile(root_manifest):
        print("perfbench: no Cargo.toml at the checkout root; nothing to benchmark",
              file=sys.stderr)
        return 2
    if not build(root_manifest, ["-p", "fairhms", "--bin", "fairhms"], env):
        return 2
    if not build(os.path.join(HERE, "Cargo.toml"), [], env):
        return 2
    rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip()

    cmd = [
        os.path.join(target, "release", "fairhms-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--server-bin", os.path.join(target, "release", "fairhms"),
        "--work-dir", os.path.join(target, "perfbench"),
        "--rev", revision(),
        "--rustc", rustc or "unknown",
    ]
    # Its own session, so a timeout can stop the server child with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 130


if __name__ == "__main__":
    sys.exit(main())
