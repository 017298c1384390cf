"""Steadiness check: run the benchmark on many seeds, report each spread.

    python3 perfbench/spread.py --seeds 1-10

Runs `run.py --trace 0` once per (seed, workload) for every workload in
BENCHMARK.json, seed-major so the workloads share any drift of the machine,
with the run length from BENCHMARK.json.  For each end-to-end metric it
prints the median over the seeds and the spread, the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share of
the median, next to the metric's bound: `ok` below a third of the bound,
`within` below the bound, `WIDE` above it.  The benchmark is steady when
every spread, setup_s's too, is `ok`; it exits 0 only then.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw: dict = {n: [] for n in names}
    steady = True
    for seed in _seeds(args.seeds):
        for name in names:
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True,
                                 check=True).stdout
            took = time.monotonic() - start
            result = json.loads(out.strip().splitlines()[-1])
            values = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"seed {seed} {name} ({took:.1f} s): "
                  f"correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v:.4g}" for k, v in values.items()),
                  flush=True)
            steady &= result["correct"]
            raw[name].append(values)
    for name in names:
        for metric, bound in bounds.items():
            values = [r[metric] for r in raw[name]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = ("ok" if spread < bound / 3
                       else "within" if spread <= bound else "WIDE")
            steady &= verdict == "ok"
            print(f"{name:<14} {metric:<12} median {med:10.4f}  spread "
                  f"{spread:6.3f}  bound {bound:5.2f}  {verdict}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
