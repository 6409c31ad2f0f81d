#!/usr/bin/env python3
"""Build and run the SafeMem simulator benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first call configures and builds
perfbench/ (the simulator library from src/ plus the driver) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
rebuild only what changed. The driver then measures the workload for
--seconds seconds and prints a report; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. Result
files and Chrome traces go to .bench_out/.

Exits non-zero, printing no result, when the simulator sources are not
there, the build fails, or the driver fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
DRIVER_TIMEOUT_SLACK_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def git_sha():
    """The checkout's commit, or a note that it is not a git checkout."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return "none (not a git checkout)"
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return "none (not a git checkout)"
    return top[1]


def source_sha256():
    """Digest of every file under src/ and perfbench/: names the code
    measured even where there is no git history."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def build():
    """Configure (once) and build the driver. @return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"simulator sources not found under {ROOT / 'src'}")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = (ROOT / target / "perfbench").resolve()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench_driver"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the report.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "perfbench_driver"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    driver = build()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out_dir),
               "--git-sha", git_sha(), "--source-sha", source_sha256()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT,
                              timeout=args.seconds + DRIVER_TIMEOUT_SLACK_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        fail(f"driver exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(done.stdout)
        fail("driver printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json "
             f"{sorted(want.items())}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
