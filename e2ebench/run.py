#!/usr/bin/env python3
"""Builds the HERMES library from this checkout's src/ and runs one benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload kernel_flow --seed 1 --seconds 10 --trace 0

The library and hermes_e2e are compiled into $CARGO_TARGET_DIR, or
.bench_build when it is unset (the first run builds; later runs only check
that the build is current). Build output goes to build.log there, never to
standard output: the last line of standard output is the result object
printed by hermes_e2e. With --trace 1 the spans are also written to
<build dir>/traces/<workload>-<seed>.json (Chrome Trace Event format).
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kernel_flow", "dse_sweep", "qual_campaign")


def source_id(src_dir):
    """SHA-256 over the library sources: identifies the code measured."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(src_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, src_dir).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    ident = "src-" + digest.hexdigest()[:16]
    head = os.path.join(".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as handle:
                    ref = handle.read().strip()
        ident += "-git-" + ref[:12]
    return ident


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "hermes_e2e",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                with open(log_path) as handle:
                    sys.stderr.write("".join(handle.readlines()[-40:]))
                sys.stderr.write("build failed: see %s\n" % log_path)
                return None
    return os.path.join(build_dir, "hermes_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    src_dir = os.path.normpath(os.path.join(BENCH_DIR, os.pardir, "src"))
    if not os.path.isfile(os.path.join(src_dir, "CMakeLists.txt")):
        sys.stderr.write("no HERMES sources at %s: run from a full checkout\n"
                         % src_dir)
        return 1

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if binary is None:
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--source-id", source_id(src_dir)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(trace_dir, "%s-%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
