"""Every workload end to end at a tiny bound, untraced and traced, and the
scaling of times to reference seconds."""

import json

import pytest

import run
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
# swap_face_convention raises CategoryError on the non-injective classes
# (a library defect recorded in NOTES.md); each counts as a failure.
FAILS_PER_ROUND = {"ladder": 0, "monadic": 0, "glue": 0, "audit": 5}


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_round_trip(workload):
    res = run.run(workload, seed=1, seconds=0, trace=False, bound=2)
    ops = len(WORKLOADS[workload])
    assert res["correct"] is True
    assert res["attempted"] == 2 * ops
    assert res["failed"] == 2 * FAILS_PER_ROUND[workload]
    assert set(res["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_round_trip(workload):
    res = run.run(workload, seed=1, seconds=0, trace=True, bound=2)
    metrics = {k: m["value"] for k, m in res["metrics"].items()}
    assert res["correct"] is True
    assert set(metrics) == PER_LAYER
    monadic_calls = [v for k, v in metrics.items()
                     if k.startswith("monadic.") and k.endswith(".calls")]
    if workload == "monadic":
        assert min(monadic_calls) > 0
    else:
        assert max(monadic_calls) == 0
    gate = metrics["cosimplicial.validate_coherence.calls"]
    assert (gate == 0) == (workload == "glue")
    assert metrics["trace.overhead_ratio"] > 0
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            total = metrics[name[:-len("self_s")] + "total_s"]
            assert metrics[name] <= total + 1e-9


def test_times_are_scaled_by_the_references_around_them_and_take_the_median():
    def child_round(seconds, refs):
        return {"ops": [{"seconds": s} for s in seconds], "refs": refs}

    ref = run.REFERENCE_S
    rounds = [
        child_round([1.0, 2.0], [ref, ref, ref]),
        # a host running at half speed: twice the time, twice the reference
        child_round([2.0, 4.0], [2 * ref, 2 * ref, 2 * ref]),
        # the reference slowed after the first operation only
        child_round([1.5, 9.0], [ref, 2 * ref, ref]),
    ]
    assert run.op_times(rounds, 2) == pytest.approx([1.0, 2.0])
