"""Cold, oracle-checked benchmark of descent_kit.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 24 --trace 0

Runs cold rounds of one workload for --seconds (at least two rounds), each
in a fresh child interpreter (one at a time, no threads), so every
operation runs cold.  Every operation's outcome is checked against a paper
oracle or the outcome recorded at the seed commit.  The last line of
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Timings are reference seconds: each measured time is scaled by how much
slower than nominal the child ran a fixed stdlib loop just before and just
after it, and each input's time is the median over the run's cold repeats.
The shared host switches between speed regimes that last longer than a
run; the scaling removes them (see NOTES.md).

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds, starting untraced, and reports the per-layer metrics of
tracing.py plus trace.overhead_ratio (traced wall_s over untraced wall_s).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150
HASH_SEED = "0"
# The reference loop's time (child.reference) on the 2-core reference host
# when nothing else loads it.  Scaling by REFERENCE_S / measured reference
# turns a measured time into reference seconds.
REFERENCE_S = 0.002

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, make_inputs  # noqa: E402
import tracing  # noqa: E402


class BenchError(RuntimeError):
    pass


def run_child(inputs: list[dict], trace: bool) -> dict:
    """Run one round in a fresh interpreter; add its set-up time."""
    env = dict(os.environ)
    env.pop("DESCENT_KIT_THREADS", None)
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(SRC)
    job = json.dumps({"inputs": inputs, "trace": trace})
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(job, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child round exceeded {CHILD_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child round failed ({proc.returncode}): {err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def op_times(rounds: list[dict], n_inputs: int) -> list[float]:
    """Each input's median time over the given rounds, in reference seconds.

    A time is scaled by the mean of the reference timings taken just
    before and just after it.
    """
    def scaled(r, i):
        ref = (r["refs"][i] + r["refs"][i + 1]) / 2
        return r["ops"][i]["seconds"] * REFERENCE_S / ref

    return [statistics.median(scaled(r, i) for r in rounds) for i in range(n_inputs)]


def run(workload: str, seed: int, seconds: float, trace: bool,
        bound: int | None = None) -> dict:
    """Measure one workload; returns the result object that main prints.

    ``bound`` overrides every operation's bound (smoke tests only).
    """
    if not (SRC / "descent_kit").is_dir():
        raise BenchError(f"no library sources under {SRC}")
    inputs = make_inputs(workload, seed, bound)
    plain: list[dict] = []
    traced: list[dict] = []
    # A round starts only if one as long as the longest so far still ends
    # within --seconds, so every run lasts the same time on every commit.
    started = time.monotonic()
    longest = 0.0
    while len(plain) + len(traced) < 2 or time.monotonic() - started + longest <= seconds:
        use_trace = trace and len(plain) > len(traced)
        round_start = time.monotonic()
        (traced if use_trace else plain).append(run_child(inputs, use_trace))
        longest = max(longest, time.monotonic() - round_start)

    rounds = plain + traced
    attempted = failed = 0
    correct = True
    for r in rounds:
        for op in r["ops"]:
            attempted += 1
            if op["error"] is not None or op["wrong"] is not None:
                failed += 1
            if op["wrong"] is not None:
                correct = False

    times = op_times(plain, len(inputs))
    wall = sum(times)
    if trace:
        metrics = layer_metrics(traced)
        metrics["trace.overhead_ratio"] = (sum(op_times(traced, len(inputs))) / wall, "ratio")
    else:
        setup = [r["setup_s"] * REFERENCE_S / r["refs"][0] for r in rounds]
        metrics = {
            "wall_s": (wall, "s"),
            "slowest_op_s": (max(times), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (max(r["maxrss_kb"] for r in plain) / 1024, "MB"),
            "pass_ratio": ((attempted - failed) / attempted, "ratio"),
        }
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_metrics(traced: list[dict]) -> dict:
    """Per-layer metrics: counts and ratios from the first traced round,
    times as the fastest over traced rounds."""
    def total(r):
        agg: dict = {}
        for layer in r["layers"]:
            agg = tracing.merge(agg, layer)
        return tracing.layer_metrics(agg)

    per_round = [total(r) for r in traced]
    metrics = dict(per_round[0])
    for name, (_, unit) in metrics.items():
        if unit == "s":
            metrics[name] = (min(m[name][0] for m in per_round), unit)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
