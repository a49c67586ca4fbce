#!/usr/bin/env python3
"""Builds the cbwt benchmark driver from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload extension_study --seed 20180901 \\
        --seconds 10 --trace 0

The driver (perfbench/driver, built by perfbench/CMakeLists.txt against
../src) prints a full record line and then, as the last line of stdout,
the result object {"correct", "attempted", "failed", "metrics"}. Build
output goes to <build root>/perfbench/build.log, never to stdout. The build
root is $CARGO_TARGET_DIR if set, else .bench_build; every file the
benchmark writes stays under it. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("extension_study", "isp_table8_store", "checkpoint_resume")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return root if root.is_absolute() else ROOT / root


def build(build_dir, env):
    """Configures (once) and builds the driver; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(log_path, "a") as log:
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=log, stderr=log, env=env).returncode:
                shutil.rmtree(build_dir / "CMakeFiles", ignore_errors=True)
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"cmake configure failed; see {log_path}")
        jobs = str(os.cpu_count() or 1)
        if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                          stdout=log, stderr=log, env=env).returncode:
            fail(f"build failed; see {log_path}")
    return build_dir / "cbwt_perfbench"


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """SHA-256 over the program and benchmark sources: identifies the code
    measured where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def declared_metrics(trace):
    """{name: unit} that BENCHMARK.json promises for this mode, if present."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    section = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in json.loads(spec.read_text())[section]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    if not (ROOT / "src" / "core" / "study.h").is_file():
        fail(f"no cbwt sources under {ROOT / 'src'}")

    root = build_root()
    root.mkdir(parents=True, exist_ok=True)
    tmp = root / "tmp"
    tmp.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    binary = build(root / "perfbench", env)
    command = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(root / "perfbench-work"),
        "--results-dir", str(root / "perfbench-results"),
        "--reference", str(HERE / "reference_digests.txt"),
        "--commit", commit(),
        "--source-digest", source_digest(),
    ]
    try:
        run = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        fail(f"driver exited with {run.returncode}")
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("driver printed no result line")
    if set(result) != RESULT_KEYS:
        fail("malformed result line")
    declared = declared_metrics(args.trace)
    emitted = {name: m.get("unit") for name, m in result["metrics"].items()}
    if declared is not None and emitted != declared:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(emitted) ^ set(declared))}")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
