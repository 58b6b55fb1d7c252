"""Seeded inputs, the cold rule and the outcome checks."""

import json
import string

import pytest

import run
from workloads import (CLASSES, LABEL_LENGTH, SEED_OUTCOMES, WORKLOADS, check,
                       is_surjective, make_inputs)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_inputs_follow_the_seed(workload):
    a, b = make_inputs(workload, 7), make_inputs(workload, 7)
    assert a == b
    assert a != make_inputs(workload, 8)
    for inp in a:
        fibers = sorted(sum(1 for _, y in inp["mapping"] if y == x) for x in inp["B"])
        assert fibers == sorted(CLASSES[inp["cls"]])
        assert [e for e, _ in inp["mapping"]] == inp["E"]
        for label in inp["E"] + inp["B"]:
            assert len(label) == LABEL_LENGTH
            assert set(label) <= set(string.ascii_letters + string.digits)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_cold_rule_no_child_sees_a_map_twice(workload):
    inputs = make_inputs(workload, 3, bound=2)
    labels = [label for inp in inputs for label in inp["E"] + inp["B"]]
    assert len(labels) == len(set(labels))
    child = run.run_child(inputs, trace=False)
    seen = [op["map"] for op in child["ops"]]
    assert len(seen) == len(inputs) == len(set(seen))


def test_seed_table_agrees_with_the_paper_oracle():
    for (kind, cls, _, pred), verdict in SEED_OUTCOMES.items():
        if kind == "classify" and not pred:
            assert (verdict == "Effective") == is_surjective(cls)


def _inp(kind, cls, bound=2, pred=False):
    return {"kind": kind, "cls": cls, "bound": bound, "pred": pred}


def test_checks_reject_wrong_outcomes():
    assert check(_inp("classify", "2to1"), {"verdict": "Effective"}) is None
    assert check(_inp("classify", "2to1"), {"verdict": "Descent"})
    assert check(_inp("classify", "1to2"), {"verdict": "Effective"})
    assert check(_inp("classify", "2to1", pred=True), {"verdict": "Effective"})
    assert check(_inp("benabou_roubaud", "1to1"),
                 {"verdict": "Equivalence", "factorizations_agree": False})
    glue = _inp("glue", "3to2_21", 5)
    assert check(glue, {"data": 12, "morphisms": 6238, "glued": 12}) is None
    assert check(glue, {"data": 12, "morphisms": 6237, "glued": 12})
    assert check(glue, {"data": 12, "morphisms": 6238, "glued": 11})
    assert check(_inp("invert_theta", "0to2"), {"failures": 0}) is None
    assert check(_inp("invert_theta", "1to2"), {"failures": 0})
    assert check(_inp("swap_face_convention", "2to2_11"), {"failures": 0}) is None
    assert check(_inp("swap_face_convention", "2to2_11"), {"failures": 3})
    assert check(_inp("swap_face_convention", "3to1"), {"failures": 0})
