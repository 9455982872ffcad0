#!/usr/bin/env python3
"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Builds the benchmark (as run.py does), then:
  * runs every workload of BENCHMARK.json end to end at tiny sizes
    (--quick), untraced and traced; each must print a correct result whose
    metric names and units are exactly BENCHMARK.json's end_to_end
    (untraced) or per_layer (traced) list;
  * runs the gate self-test, which hands each correctness gate a real
    result and a deliberately corrupted copy of it and expects the copy
    to be caught;
  * checks that bad arguments are refused with exit code 2.
Exits 0 when every check passes.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the build step of the benchmark command)


def result_of(binary, args):
    p = subprocess.run([str(binary), *args], capture_output=True, text=True,
                       timeout=180)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None), p.stderr


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    binary = run.build(run.build_dir())
    failures = []

    for wl in [w["name"] for w in spec["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", wl, "--seed", "7", "--seconds", "2",
                    "--trace", str(trace), "--quick"]
            rc, res, err = result_of(binary, args)
            where = f"{wl} --trace {trace}"
            if rc != 0 or res is None:
                failures.append(f"{where}: exit {rc}\n{err[-2000:]}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(res)}")
            if res.get("correct") is not True or res.get("failed") != 0:
                failures.append(f"{where}: not correct: {res}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                failures.append(f"{where}: metrics {sorted(got.items())} "
                                f"!= BENCHMARK.json {sorted(want.items())}")
            for k, v in res["metrics"].items():
                if not isinstance(v["value"], (int, float)) or \
                        not math.isfinite(v["value"]):
                    failures.append(f"{where}: {k} = {v['value']!r}")
            print(f"ok {where}: {len(got)} metrics, "
                  f"{res['attempted']} operations checked")

    rc, res, err = result_of(binary, ["--gate-selftest"])
    if rc != 0 or res != {"gate_selftest": True}:
        failures.append(f"gate self-test: exit {rc} {res}\n{err}")
    else:
        print("ok gate self-test: every corrupted copy caught")

    rc, _, _ = result_of(binary, ["--workload", "no-such", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"])
    if rc != 2:
        failures.append(f"unknown workload: exit {rc}, want 2")

    for f in failures:
        print("FAIL", f)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
