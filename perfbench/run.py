#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

    python3 perfbench/run.py --workload suite-serial --seed 7 --seconds 20 --trace 0

Configures and builds perfbench/CMakeLists.txt (the library from src/
plus the gsbench program) under $CARGO_TARGET_DIR or .bench_build, runs
the arithmetic self-test, then runs the workload in a fresh private
directory that is removed afterwards. The last line of stdout is the
result JSON; build output goes to stderr. Exits nonzero, without a
result, when the sources are missing, the build fails or a check fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["suite-serial", "bench-cold", "serve-mixed"]
RUN_TIMEOUT_S = 170


def sh(cmd, **kw):
    """Run a build step with its output on stderr; raise on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, **kw)


def build(build_root, env):
    bdir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
           env=env)
    sh(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1),
        "--target", "gsbench", "gsbench_selftest"], env=env)
    return bdir


def digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_signal)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    os.chdir(ROOT)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tmp_root = os.path.join(build_root, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    # Compiler and program temporaries stay inside the checkout too.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GS_")}
    env["TMPDIR"] = os.path.abspath(tmp_root)
    try:
        bdir = build(build_root, env)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    gsbench = os.path.join(bdir, "gsbench")
    if subprocess.run([os.path.join(bdir, "gsbench_selftest")],
                      stdout=sys.stderr, env=env).returncode != 0:
        print("run.py: self-test failed", file=sys.stderr)
        return 1

    # Relative, so the daemon's unix socket path stays short.
    work = os.path.relpath(tempfile.mkdtemp(prefix="run-", dir=tmp_root))
    cmd = [gsbench,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work,
           "--golden", os.path.join("docs", "bench_reference_output.txt"),
           "--digest-dir", os.path.join(build_root, "digests", digest(gsbench)),
           "--trace-dir", os.path.join(build_root, "traces")]
    proc = subprocess.Popen(cmd, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: workload timed out", file=sys.stderr)
        return 1
    finally:
        # Also reached on SIGTERM/SIGINT: never leave gsbench running.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
