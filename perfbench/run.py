#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload table-n4096 --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only
re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's result object. The exit code is the
benchmark's: 0 correct, 1 a failed or wrong operation, 2 bad arguments;
a failed build exits 3 without printing a result.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build_dir() -> Path:
    root = Path.cwd()
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    return target / "perfbench"


def build(out: Path) -> Path:
    binary = out / "perfbench"
    if not ((out / "build.ninja").exists() or (out / "Makefile").exists()):
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return binary


def main() -> int:
    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    sys.stdout.flush()
    return subprocess.run([str(binary), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
