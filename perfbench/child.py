"""One cold round of a workload, in a fresh interpreter.

Reads a job from stdin: {"inputs": [...], "trace": bool}.  Imports the
library, builds every input map, notes the time (the end of set-up), then
runs each operation once, timing it and recording its outcome.  Before the
first operation and after each one it times a fixed stdlib loop, the
reference, which tells the parent how fast the host ran at that moment.
Prints one JSON object as its last line of output.

The parent starts one of these per round, so no interpreter sees a map
twice: each operation of a round has its own map.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time


def reference() -> float:
    """Best of three timings of a fixed stdlib loop, with the collector off
    so that the size of the library's heap does not reach into it."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            table = {}
            for i in range(3000):
                table[(i, i % 7)] = tuple(range(i % 5))
            order = sorted(table, key=lambda k: (k[1], -k[0]))
            frozenset(order[:500])
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        gc.enable()


def main() -> None:
    job = json.load(sys.stdin)

    from descent_kit import cosimplicial, descent, monadic, mutations
    from descent_kit.finset import FinFunction, FinSetObj
    from workloads import check

    def even(carrier) -> bool:
        return len(carrier) % 2 == 0

    def run_classify(p, inp):
        pred = even if inp["pred"] else None
        return {"verdict": descent.classify(p, inp["bound"], carrier_pred=pred).verdict}

    def run_benabou_roubaud(p, inp):
        res = monadic.benabou_roubaud(p, inp["bound"])
        return {"verdict": res.verdict, "factorizations_agree": res.factorizations_agree}

    def run_glue(p, inp):
        fib = cosimplicial.basic_fibration(p, inp["bound"])
        desc = descent.DescCategory(fib, inp["bound"])
        data = desc.objects()
        morphisms = sum(len(desc.hom(x, y)) for x in data for y in data)
        glued = 0
        for datum in data:
            res = descent.descend(fib, datum)
            if (res.iso is not None and res.iso.dst.key == datum.key
                    and res.iso.m.fn.is_bijective()
                    and res.partial == (not p.is_surjective())):
                glued += 1
        return {"data": len(data), "morphisms": morphisms, "glued": glued}

    def run_mutation(mutate):
        def run(p, inp):
            fib = cosimplicial.basic_fibration(p, inp["bound"])
            report = cosimplicial.validate_coherence(mutate(fib), inp["bound"])
            return {"failures": len(report.failures)}
        return run

    runners = {
        "classify": run_classify,
        "benabou_roubaud": run_benabou_roubaud,
        "glue": run_glue,
        "invert_theta": run_mutation(mutations.invert_theta),
        "swap_face_convention": run_mutation(mutations.swap_face_convention),
    }
    inputs = job["inputs"]
    maps = [FinFunction(FinSetObj(tuple(inp["E"])), FinSetObj(tuple(inp["B"])),
                        tuple((e, b) for e, b in inp["mapping"]))
            for inp in inputs]
    ready = time.monotonic()
    refs = [reference()]

    tracer = None
    layers = []
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    ops = []
    try:
        for inp, p in zip(inputs, maps):
            if tracer is not None:
                tracer.reset()
            outcome, error = None, None
            start = time.perf_counter()
            try:
                outcome = runners[inp["kind"]](p, inp)
            except Exception as exc:  # a failed operation is data, not a crash
                error = f"{type(exc).__name__}: {exc}"[:300]
            seconds = time.perf_counter() - start
            refs.append(reference())
            if tracer is not None:
                layers.append(tracing.summarize(tracer.spans, tracer.built))
            ops.append({
                "seconds": seconds,
                "error": error,
                "wrong": None if outcome is None else check(inp, outcome),
                "map": hashlib.sha1(repr(p.key).encode()).hexdigest()[:16],
            })
    finally:
        if tracer is not None:
            tracer.uninstall()
    print(json.dumps({
        "ready": ready,
        "ops": ops,
        "refs": refs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
