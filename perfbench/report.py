"""Run every workload, each in a fresh interpreter, and print all metrics as a table.

    python3 perfbench/report.py --seed 1            # end-to-end metrics
    python3 perfbench/report.py --seed 1 --trace 1  # per-layer metrics

Exits 1 if any op of any workload gave a wrong verdict or a run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    status = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print("%-11s run failed (exit %d)\n%s" % (workload, proc.returncode, proc.stderr[-2000:]))
            status = 1
            continue
        print("%-11s correct=%s attempted=%d failed=%d failed_ratio=%g"
              % (workload, result["correct"], result["attempted"], result["failed"],
                 result["failed"] / result["attempted"]))
        for name, metric in result["metrics"].items():
            print("%-11s %-40s %14.6g %s" % (workload, name, metric["value"], metric["unit"]))
        if proc.returncode or not result["correct"]:
            print("\n".join(line for line in lines if line.startswith("FAILED")))
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
