"""The answers of the library over the 19 small maps, pinned as one digest.

A change that is meant to keep every answer (a speed-up, a refactor) must
keep this digest; a change that means to alter an answer updates the pin
and says in its description which records moved.  The records are built
from reprs only, so the digest does not depend on object identity or on
the interpreter's hash seed.  ``answer_records`` lists them; printing it
before and after a change shows which moved.
"""

import hashlib

from descent_kit.cosimplicial import basic_fibration, validate_coherence
from descent_kit.descent import DescCategory, classify
from descent_kit.monadic import benabou_roubaud
from descent_kit.mutations import invert_theta, swap_face_convention


def even(carrier) -> bool:
    return len(carrier) % 2 == 0


def _decision(d) -> tuple:
    if d is None:
        return ("undecided",)
    return (d.ok, repr(d.witness), d.within_bound)


def _report(report) -> tuple:
    return (report.level, _decision(report.faithful), _decision(report.full),
            _decision(report.essentially_surjective))


def answer_records(maps) -> list[str]:
    """One record per question: ``classify`` at bounds 1-3 with and without
    the even predicate (verdict, exit code, each decision's ok, witness and
    within_bound), ``benabou_roubaud`` at bounds 2-3 (its report and
    whether the factorizations agree), and Desc(p) at bounds 1-3 (each
    datum in order, each hom-set's count and members in order) beside the
    hom counts of C/E, for each of maps."""
    out = []
    for p in maps:
        for bound in (1, 2, 3):
            for pred in (None, even):
                res = classify(p, bound, carrier_pred=pred)
                out.append(repr(("classify", repr(p), bound, pred is not None,
                                 res.verdict, res.exit_code, _report(res.report))))
        for bound in (2, 3):
            res = benabou_roubaud(p, bound)
            out.append(repr(("benabou_roubaud", repr(p), bound, _report(res.report),
                             res.factorizations_agree)))
        for bound in (1, 2, 3):
            fib = basic_fibration(p, bound)
            desc, c1 = DescCategory(fib, bound), fib.c1
            data, objs = desc.objects(), c1.objects()
            out.append(repr((
                "desc", repr(p), bound, [repr(d) for d in data],
                [(len(desc.hom(x, y)), [repr(m) for m in desc.hom(x, y)])
                 for x in data for y in data],
                len(objs), [len(c1.hom(x, y)) for x in objs for y in objs])))
    return out


# sha256 over the records joined by newlines.  Last moved when the
# not-full witnesses of ``is_full`` became (x, y, missed): the 40 not-full
# classify records changed, each keeping its missed morphism.
ANSWERS_SHA256 = "c288b84a0b0aac2c4c6ada70943046966ea82b5b82acc9bb8304615c7ee92680"


def test_answers_over_the_small_maps_are_pinned(small_maps):
    records = answer_records(small_maps())
    assert len(records) == 19 * (6 + 2 + 3)
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == ANSWERS_SHA256


MUTATIONS = {"plain": lambda fib: fib, "invert_theta": invert_theta,
             "swap_face_convention": swap_face_convention}


def gate_records(maps) -> list[str]:
    """One record per ``validate_coherence`` report: each of maps, plain
    and under each mutation, at bounds 1-3, with every failure's equation
    and the reprs of its witness, lhs and rhs, in report order."""
    return [repr((repr(p), name, bound, [
                (f.equation, repr(f.witness), repr(f.lhs), repr(f.rhs))
                for f in validate_coherence(mutate(basic_fibration(p, bound))).failures]))
            for p in maps for name, mutate in MUTATIONS.items() for bound in (1, 2, 3)]


# sha256 over the gate records joined by newlines.  Pinned when the gate
# stopped raising on the mis-typed cells of ``swap_face_convention``: the
# 135 reports it gave before were kept byte for byte, and the 36 on the
# non-injective maps became reports of wrong sources.
GATE_SHA256 = "c3730155a71f6a73e834d490c89b7f3e3f4f8f49d1486502174ab9d4edf2e1a2"


def test_gate_reports_over_the_small_maps_are_pinned(small_maps):
    records = gate_records(small_maps())
    assert len(records) == 19 * 3 * 3
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == GATE_SHA256
