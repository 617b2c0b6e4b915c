#!/usr/bin/env python3
"""Run one workload of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Builds perfbench/strip_perf.exe from the checkout's sources with dune,
prints a provenance line, then runs the workload (or every workload in
turn).  The last line of standard output is the JSON result.  Exits 0 when
every correctness check passed, 1 when one failed, and 2 to 4 when the
benchmark could not run (no sources, build failure, timeout).
"""

import argparse
import hashlib
import json
import os
import shlex
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE_REL = os.path.join(".", "_build", "default", "perfbench", "strip_perf.exe")
EXE = os.path.join(ROOT, EXE_REL)
BUILD_TIMEOUT_S = 850
RUN_MARGIN_S = 120


def fail(code, msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("dune-project", "lib", "bin", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if f.endswith((".ml", ".mli", "dune", "dune-project", ".py")):
                h.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_revision():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail(2, "no STRIP sources next to perfbench/ (dune-project, lib/)")
    try:
        # Build output goes to stderr: stdout carries only the results.
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/strip_perf.exe"],
            cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail(3, "dune not found")
    except subprocess.TimeoutExpired:
        fail(4, "build timed out")
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail(3, "build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    build()
    names = subprocess.run([EXE, "--list"], capture_output=True, text=True,
                           check=True).stdout.split()
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail(2, "unknown workload %r; one of: %s" % (args.workload,
                                                     ", ".join(names)))
    print("# provenance " + json.dumps({
        "command": shlex.join(["python3", "perfbench/run.py"] + sys.argv[1:]),
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
    }), flush=True)
    worst = 0
    for w in workloads:
        cmd = [EXE_REL, "--workload", w, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        # Own process group: a timeout also stops the sample processes
        # the benchmark forks.
        p = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
        try:
            code = p.wait(timeout=args.seconds + RUN_MARGIN_S)
        except subprocess.TimeoutExpired:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            fail(4, "workload %s timed out" % w)
        worst = max(worst, code if code >= 0 else 1)
    sys.exit(worst)


if __name__ == "__main__":
    main()
