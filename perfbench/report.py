"""Steadiness report: run the benchmark in sets and summarise each metric.

    python3 perfbench/report.py                     # 2 sets x 10 seeds, every workload
    python3 perfbench/report.py --sets 1 --runs 1   # one run each: the quick table
    python3 perfbench/report.py --trace             # one traced run each: per-layer table

Each run is the command BENCHMARK.json names, with its run_seconds.  For
every workload and end-to-end metric the table gives the median and
quartiles of each set, the spread (quartile distance over the median)
against the metric's bound, and, from the second set on, how far the
median moved from the first set's.  fail_ratio is failed / attempted.
Set k uses seeds 100*k + 1 .. 100*k + runs, so no two sets share a seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: bool) -> dict:
    cmd = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed}: {json.dumps(result)}", file=sys.stderr, flush=True)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile distance over median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def steadiness(workloads: list[str], sets: int, runs: int) -> bool:
    results: dict = {w: [] for w in workloads}
    for k in range(sets):  # a whole set of every workload before the next set
        for w in workloads:
            results[w].append([run_once(w, 100 * k + i + 1, False) for i in range(runs)])
    steady = True
    print(f"{'workload':8} {'metric':13} {'unit':5} set {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>5} fits  {'moved':>7}")
    for w in workloads:
        for spec in BENCHMARK["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            first = None
            for k, set_results in enumerate(results[w]):
                med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in set_results])
                # setup_s is exempt from the spread check; its median still counts
                fits = sp <= bound or name == "setup_s"
                moved = ""
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if spec["better"] == "lower" \
                        else (first - med) / first
                    moved = f"{worse:+.3f}"
                    fits = fits and worse <= bound
                steady = steady and fits
                print(f"{w:8} {name:13} {spec['unit']:5} {k + 1:3} {med:10.4f} {q1:10.4f} "
                      f"{q3:10.4f} {sp:7.3f} {bound:5.2f} {'yes' if fits else 'NO ':4} "
                      f"{moved:>7}")
        for k, set_results in enumerate(results[w]):
            attempted = sum(r["attempted"] for r in set_results)
            failed = sum(r["failed"] for r in set_results)
            correct = all(r["correct"] for r in set_results)
            print(f"{w:8} {'fail_ratio':13} {'ratio':5} {k + 1:3} {failed / attempted:10.4f}"
                  f"   ({failed} of {attempted} operations; outcome check "
                  f"{'passed' if correct else 'FAILED'})")
    return steady


def traced_table(workloads: list[str]) -> None:
    results = {w: run_once(w, 1, True) for w in workloads}
    print(f"{'metric':44} {'unit':5} " + " ".join(f"{w:>12}" for w in workloads))
    for spec in BENCHMARK["per_layer"]:
        name = spec["name"]
        values = " ".join(f"{results[w]['metrics'][name]['value']:12.4f}" for w in workloads)
        print(f"{name:44} {spec['unit']:5} {values}")


def main(argv=None) -> int:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.trace:
        traced_table(workloads)
        return 0
    return 0 if steadiness(workloads, args.sets, args.runs) else 1


if __name__ == "__main__":
    sys.exit(main())
