"""Workload definitions, seeded input generation and outcome checks.

Every input is a map p: E -> B given by its isomorphism class (the fiber
size over each base point).  The seed picks the concrete representative:
the labels (fixed-length alphanumeric, so none needs escaping by
``pair_label``), the element order of E and B, and which base point gets
which fiber.  Expected outcomes depend only on the class and the bound.

Every operation gets its own freshly labelled map, so no interpreter that
runs a workload round ever sees the same map twice (the cold rule).

This module is plain data and stdlib; it does not import ``descent_kit``.
"""

from __future__ import annotations

import random
import string

LABEL_LENGTH = 6
_ALPHABET = string.ascii_letters + string.digits

# isomorphism class name -> fiber size over each base point
CLASSES = {
    "0to1": (0,),
    "1to1": (1,),
    "2to1": (2,),
    "3to1": (3,),
    "0to2": (0, 0),
    "1to2": (1, 0),
    "2to2_20": (2, 0),
    "2to2_11": (1, 1),
    "3to2_30": (3, 0),
    "3to2_21": (2, 1),
}

PRED_CLASSES = ("2to1", "3to1", "3to2_21")
# Bounds are sized so that a round costs about a second and a run holds
# enough cold repeats for a steady median (see NOTES.md).
GATE_BOUND = 2
GLUE_BOUND = 5
GLUE_CLASSES = ("2to1", "3to1", "3to2_21", "1to2")

# Each operation is (kind, class, bound, with_even_predicate).
WORKLOADS = {
    "ladder": [("classify", c, GATE_BOUND, False) for c in CLASSES]
    + [("classify", c, GATE_BOUND, True) for c in PRED_CLASSES],
    "monadic": [("benabou_roubaud", c, GATE_BOUND, False) for c in CLASSES],
    "glue": [("glue", c, GLUE_BOUND, False) for c in GLUE_CLASSES],
    "audit": [(kind, c, GATE_BOUND, False) for c in CLASSES
              for kind in ("invert_theta", "swap_face_convention")],
}

# Outcomes recorded at the seed commit, keyed by (kind, class, bound, pred).
# classify: verdict.  glue: (descent data, morphisms over all pairs); the
# bound 2 glue entries serve the smoke tests.
SEED_OUTCOMES = {
    ("classify", c, GATE_BOUND, False): "Effective" if all(f) else "NotAlmost"
    for c, f in CLASSES.items()
}
SEED_OUTCOMES.update({
    ("classify", "2to1", GATE_BOUND, True): "Descent",
    ("classify", "3to1", GATE_BOUND, True): "Effective",
    ("classify", "3to2_21", GATE_BOUND, True): "Descent",
    ("glue", "2to1", GLUE_BOUND, False): (3, 11),
    ("glue", "3to1", GLUE_BOUND, False): (2, 3),
    ("glue", "3to2_21", GLUE_BOUND, False): (12, 6238),
    ("glue", "1to2", GLUE_BOUND, False): (6, 5705),
    ("glue", "2to1", 2, False): (2, 3),
    ("glue", "3to1", 2, False): (1, 1),
    ("glue", "3to2_21", 2, False): (4, 13),
    ("glue", "1to2", 2, False): (3, 11),
})


def is_surjective(cls: str) -> bool:
    return all(CLASSES[cls])


def is_injective(cls: str) -> bool:
    return all(n <= 1 for n in CLASSES[cls])


def make_inputs(workload: str, seed: int, bound: int | None = None) -> list[dict]:
    """The workload's operations with concrete maps chosen by the seed.

    ``bound`` replaces every operation's bound (used by smoke tests).
    Each input is JSON data: the operation and the map as labels.
    """
    rng = random.Random(f"{workload}:{seed}")
    used: set[str] = set()

    def fresh_label() -> str:
        while True:
            lbl = "".join(rng.choice(_ALPHABET) for _ in range(LABEL_LENGTH))
            if lbl not in used:
                used.add(lbl)
                return lbl

    inputs = []
    for kind, cls, op_bound, pred in WORKLOADS[workload]:
        fibers = list(CLASSES[cls])
        rng.shuffle(fibers)
        base = [fresh_label() for _ in fibers]
        mapping = [[fresh_label(), b] for b, n in zip(base, fibers) for _ in range(n)]
        rng.shuffle(mapping)
        inputs.append({
            "kind": kind, "cls": cls, "pred": pred,
            "bound": op_bound if bound is None else bound,
            "E": [e for e, _ in mapping], "B": base, "mapping": mapping,
        })
    return inputs


def check(inp: dict, outcome: dict) -> str | None:
    """None when the outcome agrees with its oracle, else the disagreement.

    Paper oracles: effective descent iff p is surjective (finite sets);
    Benabou-Roubaud, Desc(p) equivalent to EM(T_p).  The audit oracle: the
    coherence report is non-empty exactly when the mutation is non-trivial.
    Other outcomes are compared with SEED_OUTCOMES.
    """
    kind, cls, bound, pred = inp["kind"], inp["cls"], inp["bound"], inp["pred"]
    key = (kind, cls, bound, pred)
    if kind == "classify":
        verdict = outcome["verdict"]
        if not pred and (verdict == "Effective") != is_surjective(cls):
            return f"verdict {verdict} contradicts effective <=> surjective"
        if key in SEED_OUTCOMES and verdict != SEED_OUTCOMES[key]:
            return f"verdict {verdict}, seed recorded {SEED_OUTCOMES[key]}"
        return None
    if kind == "benabou_roubaud":
        if outcome["verdict"] != "Equivalence" or not outcome["factorizations_agree"]:
            return f"Desc(p) -> EM(T_p) gave {outcome}"
        return None
    if kind == "glue":
        got = (outcome["data"], outcome["morphisms"])
        if key in SEED_OUTCOMES and got != SEED_OUTCOMES[key]:
            return f"(data, morphisms) = {got}, seed recorded {SEED_OUTCOMES[key]}"
        if outcome["glued"] != outcome["data"]:
            return f"descend verified {outcome['glued']} of {outcome['data']} data"
        return None
    if kind == "invert_theta":
        nontrivial = sum(CLASSES[cls]) > 0
    else:
        nontrivial = not is_injective(cls)
    if (outcome["failures"] > 0) != nontrivial:
        return (f"{outcome['failures']} coherence failures for a "
                f"{'non-trivial' if nontrivial else 'trivial'} mutation")
    return None
