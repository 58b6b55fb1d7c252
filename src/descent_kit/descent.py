"""Descent data, the descent category, the comparison functor and the
descent classifier.

A descent datum on a truncated diagram is a pair (W, rho) of a level-1
object and an isomorphism rho: d1(W) -> d0(W) satisfying

    associativity:  del0(rho) ∘ sigma02_W ∘ del2(rho) ∘ sigma12_W⁻¹
                       = sigma01_W ∘ del1(rho)
    identity:       n0_W ∘ s0(rho) = n1_W

and a morphism (W, rho) -> (X, rho') is m: W -> X with
d0(m) ∘ rho = rho' ∘ d1(m).

For the basic fibration of p: E -> B, ``descend`` glues a datum to an
object over B (the constructive inverse of the comparison functor), and
``classify`` decides the almost / plain / effective descent ladder with
auditable witnesses.  Essential surjectivity is always decided by gluing,
never by blind search over C/B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import TheoremViolation
from .fincat import (Category, CategoryError, ComputableCategory, Decision,
                     EquivalenceReport, FullSubcategory, Functor,
                     all_isomorphisms, is_equivalence)
from .finset import FinFunction, FinSetObj, quotient
from .cosimplicial import (AugCosimplicial3, BasicFibration, basic_fibration,
                           validate_coherence)
from .slices import SliceCategory, SliceMor, SliceObj, slice_isos


@dataclass(frozen=True)
class DescentDatum:
    """A level-1 object with a gluing isomorphism between its two pullbacks."""

    w: SliceObj
    rho: SliceMor  # d1(w) -> d0(w)

    @property
    def key(self):
        # read only by perfbench/child.py, which compares glued data by it
        return (self.w, self.rho)

    def __repr__(self):
        return f"Datum({self.w!r}, {self.rho.fn!r})"


@dataclass(frozen=True)
class DescMor:
    src: DescentDatum
    dst: DescentDatum
    m: SliceMor

    def __repr__(self):
        return f"{self.m.fn!r}:{self.src!r}→{self.dst!r}"


def is_descent_datum(diagram: AugCosimplicial3, w: SliceObj,
                     rho) -> tuple[bool, Optional[str]]:
    """Evaluate the two datum equations as concrete morphism equalities.

    The identity equation is checked first; the failing one is named.
    """
    c1, c3 = diagram.c1, diagram.c3
    if rho.src != diagram.d1.obj(w) or rho.dst != diagram.d0.obj(w):
        raise CategoryError(f"rho has wrong type: {rho.src} -> {rho.dst}")

    lhs = c1.compose(diagram.n0.at(w), diagram.s0.mor(rho))
    rhs = diagram.n1.at(w)
    if lhs != rhs:
        return False, "identity"
    lhs = c3.compose(
        diagram.del0.mor(rho),
        c3.compose(diagram.sigma02.at(w),
                   c3.compose(diagram.del2.mor(rho),
                              diagram.sigma12.inverse().at(w))))
    rhs = c3.compose(diagram.sigma01.at(w), diagram.del1.mor(rho))
    if lhs != rhs:
        return False, "associativity"
    return True, None


def enumerate_descent_data(diagram: AugCosimplicial3, bound: Optional[int] = None,
                           dedupe: bool = True,
                           carrier_pred: Optional[Callable[[FinSetObj], bool]] = None
                           ) -> list[DescentDatum]:
    """All descent data with level-1 carrier within bound.

    Enumeration: every canonical level-1 object, every isomorphism between
    its two pullbacks, filtered by the two equations.  With dedupe, one
    representative per carrier-relabelling class is kept (the
    lexicographically least conjugate).
    """
    c1, c2 = diagram.c1, diagram.c2
    slice_backed = isinstance(c1, SliceCategory)
    out = []
    for w in c1.objects(bound):
        if carrier_pred is not None and not carrier_pred(w.carrier):
            continue
        d1w, d0w = diagram.d1.obj(w), diagram.d0.obj(w)
        if slice_backed:
            candidates = slice_isos(d1w, d0w)
        else:
            candidates = (f for (f, _) in all_isomorphisms(c2, d1w, d0w))
        for rho in candidates:
            ok, _ = is_descent_datum(diagram, w, rho)
            if not ok:
                continue
            datum = DescentDatum(w, rho)
            if dedupe and slice_backed:
                rep, _ = canonicalize_datum(diagram, datum)
                if rep != datum:
                    continue
            out.append(datum)
    return out


def conjugate_datum(diagram: AugCosimplicial3, datum: DescentDatum,
                    g: SliceMor) -> tuple[DescentDatum, "DescMor"]:
    """Transport a datum along an automorphism g of its carrier.

    Returns the conjugated datum together with g as the connecting
    descent-category isomorphism datum -> conjugate.
    """
    c2 = diagram.c2
    d0g = diagram.d0.mor(g)
    d1g = diagram.d1.mor(g)
    inv = SliceMor(d1g.dst, d1g.src, d1g.fn.inverse())
    rho2 = c2.compose(d0g, c2.compose(datum.rho, inv))
    new = DescentDatum(datum.w, rho2)
    return new, DescMor(datum, new, g)


def canonicalize_datum(diagram: AugCosimplicial3,
                       datum: DescentDatum) -> tuple[DescentDatum, "DescMor"]:
    """Lexicographically least conjugate under carrier relabellings.

    Every conjugate shares w and the source and target of rho, so they are
    ordered by the mapping of rho alone.
    """
    best = None
    best_iso = None
    for g in slice_isos(datum.w, datum.w):
        cand, iso = conjugate_datum(diagram, datum, g)
        if best is None or cand.rho.fn.mapping < best.rho.fn.mapping:
            best, best_iso = cand, iso
    return best, best_iso


class DescCategory(ComputableCategory):
    """The category of descent data of a truncated diagram."""

    def __init__(self, diagram: AugCosimplicial3, bound: int = 4,
                 carrier_pred: Optional[Callable[[FinSetObj], bool]] = None):
        self.diagram = diagram
        self.default_bound = bound
        self.carrier_pred = carrier_pred
        self._objects_cache: dict = {}
        self._hom_cache: dict = {}

    def objects(self, bound=None):
        bound = self.default_bound if bound is None else bound
        if bound not in self._objects_cache:
            self._objects_cache[bound] = enumerate_descent_data(
                self.diagram, bound, carrier_pred=self.carrier_pred)
        return list(self._objects_cache[bound])

    def hom(self, x: DescentDatum, y: DescentDatum) -> list[DescMor]:
        ck = (x, y)
        if ck in self._hom_cache:
            return self._hom_cache[ck]
        if isinstance(self.diagram, BasicFibration):
            out = self._hom_fibration(x, y)
        else:
            out = self._hom_generic(x, y)
        self._hom_cache[ck] = out
        return out

    def _equivariant(self, x, y, m: SliceMor) -> bool:
        c2 = self.diagram.c2
        lhs = c2.compose(self.diagram.d0.mor(m), x.rho)
        rhs = c2.compose(y.rho, self.diagram.d1.mor(m))
        return lhs == rhs

    def _hom_generic(self, x, y):
        return [DescMor(x, y, m) for m in self.diagram.c1.hom(x.w, y.w)
                if self._equivariant(x, y, m)]

    def _hom_fibration(self, x, y):
        """Backtracking enumeration with forcing.

        rho moves elements between fibers over related base points; the
        equivariance condition then forces the image of one element from
        the image of another, so choices are only free on class
        representatives.  Same answers as the brute filter, much faster.
        """
        diagram = self.diagram
        d1, d0 = diagram.d1, diagram.d0
        wx, wy = x.w, y.w

        def transitions(datum):
            dat_d1 = d1.obj(datum.w)
            top1 = d1.top(datum.w)
            top0 = d0.top(datum.w)
            rho_table = datum.rho.fn
            out = []
            for u in dat_d1.carrier.elements:
                out.append((top1(u), dat_d1.to_base(u), top0(rho_table(u))))
            return out

        # forced moves on the target side: (element, base point) -> element
        force_y = {}
        for (v1, t, v2) in transitions(y):
            force_y[(v1, t)] = v2

        trans_x = transitions(x)
        elems = list(wx.carrier.elements)
        fiber_y: dict = {}
        for e in wy.carrier.elements:
            fiber_y.setdefault(wy.to_base(e), []).append(e)

        out = []
        assignment: dict = {}

        def propagate(pending) -> Optional[list]:
            changed = []
            queue = list(pending)
            while queue:
                w_elt = queue.pop()
                for (w1, t, w2) in trans_x:
                    if w1 != w_elt or w1 not in assignment:
                        continue
                    forced = force_y.get((assignment[w1], t))
                    if forced is None:
                        return None
                    if w2 in assignment:
                        if assignment[w2] != forced:
                            return None
                    else:
                        assignment[w2] = forced
                        changed.append(w2)
                        queue.append(w2)
            return changed

        def undo(changed):
            for e in changed:
                del assignment[e]

        def search(i):
            while i < len(elems) and elems[i] in assignment:
                i += 1
            if i == len(elems):
                fn = FinFunction.of(wx.carrier, wy.carrier, dict(assignment))
                out.append(DescMor(x, y, SliceMor(wx, wy, fn)))
                return
            e = elems[i]
            for cand in fiber_y.get(wx.to_base(e), []):
                assignment[e] = cand
                changed = propagate([e])
                if changed is not None:
                    search(i + 1)
                    undo(changed)
                del assignment[e]

        search(0)
        out.sort(key=lambda mor: mor.m.fn.mapping)
        return out

    def identity(self, x: DescentDatum) -> DescMor:
        return DescMor(x, x, self.diagram.c1.identity(x.w))

    def compose(self, g: DescMor, f: DescMor) -> DescMor:
        if f.dst != g.src:
            raise CategoryError("non-composable descent morphisms")
        return DescMor(f.src, g.dst, self.diagram.c1.compose(g.m, f.m))

    def forgetful(self) -> Functor:
        return Functor(self, self.diagram.c1, lambda d: d.w, lambda m: m.m, name="U")


def comparison(diagram: AugCosimplicial3, bound: int = 4,
               desc: Optional[DescCategory] = None,
               domain: Optional[Category] = None) -> Functor:
    """The comparison functor level-0 -> Desc: B0 |-> (d(B0), theta_B0).

    Refuses to build over an incoherent diagram.  Post-composing with the
    forgetful functor gives back the augmentation on the nose.
    """
    if not diagram.augmented:
        raise CategoryError("comparison needs an augmented diagram")
    rep = validate_coherence(diagram, bound)
    if not rep.is_empty():
        raise CategoryError(f"incoherent diagram: {rep}")
    desc = desc if desc is not None else DescCategory(diagram, bound)
    dom = domain if domain is not None else diagram.c0

    def on_obj(b0):
        return DescentDatum(diagram.d.obj(b0), diagram.theta.at(b0))

    def on_mor(f):
        mor = DescMor(on_obj(f.src), on_obj(f.dst), diagram.d.mor(f))
        if not desc._equivariant(mor.src, mor.dst, mor.m):
            raise TheoremViolation(f"comparison image breaks equivariance at {f}")
        return mor

    return Functor(dom, desc, on_obj, on_mor, name="Phi")


@dataclass
class DescendResult:
    glued: SliceObj                 # object of C/B
    iso: Optional[DescMor]          # comparison(glued) -> datum, in Desc
    partial: bool                   # p not surjective: glued lives over im(p)


def descend(fib: BasicFibration, datum: DescentDatum,
            check: bool = True) -> DescendResult:
    """Glue a descent datum to an object over the base.

    The carrier is the quotient of the datum's total set by the relation
    rho induces between fibers over related points; the returned
    isomorphism exhibits comparison(glued) ≅ datum and is verified before
    being returned.
    """
    if check:
        ok, which = is_descent_datum(fib, datum.w, datum.rho)
        if not ok:
            raise CategoryError(f"invalid descent datum: {which} equation fails")
    w = datum.w
    d1w = fib.d1.obj(w)
    top1, top0 = fib.d1.top(w), fib.d0.top(w)
    pairs = [(top1(u), top0(datum.rho.fn(u))) for u in d1w.carrier.elements]
    q, proj = quotient(w.carrier, pairs)

    assign = {}
    for cls in q.elements:
        assign[cls] = fib.p(w.to_base(cls))
    for e in w.carrier.elements:
        # p-image must be constant on classes, else the datum was invalid
        if fib.p(w.to_base(e)) != assign[proj(e)]:
            raise TheoremViolation(f"glued class of {e} is not over a single base point")
    glued = SliceObj(FinFunction.of(q, fib.p.cod, assign))

    # the canonical iso comparison(glued) -> datum: (class, e) |-> the unique
    # representative of the class in the fiber over e
    pg = fib.d.obj(glued)
    table = {}
    members: dict = {}
    for e in w.carrier.elements:
        members.setdefault((proj(e), w.to_base(e)), []).append(e)
    for t in pg.carrier.elements:
        cls = fib.d.top(glued)(t)
        e = pg.to_base(t)
        reps = members.get((cls, e), [])
        if len(reps) != 1:
            raise TheoremViolation(
                f"class {cls} meets the fiber over {e} in {len(reps)} points; "
                f"datum {datum} does not glue")
        table[t] = reps[0]
    fn = FinFunction.of(pg.carrier, w.carrier, table)
    if not fn.is_bijective():
        raise TheoremViolation(f"gluing comparison for {datum} is not bijective")
    m = SliceMor(pg, w, fn)
    phi_glued = DescentDatum(pg, fib.theta.at(glued))
    iso = DescMor(phi_glued, datum, m)
    c2 = fib.c2
    lhs = c2.compose(fib.d0.mor(m), phi_glued.rho)
    rhs = c2.compose(datum.rho, fib.d1.mor(m))
    if lhs != rhs:
        raise TheoremViolation(f"gluing comparison for {datum} is not equivariant")
    return DescendResult(glued, iso, partial=not fib.p.is_surjective())


EFFECTIVE = "Effective"
DESCENT = "Descent"
ALMOST = "Almost"
NOT_ALMOST = "NotAlmost"

_EXIT_CODES = {EFFECTIVE: 0, DESCENT: 3, ALMOST: 4, NOT_ALMOST: 5}


@dataclass
class ClassifyResult:
    verdict: str
    report: EquivalenceReport
    fib: BasicFibration
    desc: DescCategory
    phi: Functor

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.verdict]


def classify(p: FinFunction, bound: int = 4,
             carrier_pred: Optional[Callable[[FinSetObj], bool]] = None,
             desc: Optional[DescCategory] = None) -> ClassifyResult:
    """Place p on the ladder NotAlmost < Almost < Descent < Effective.

    carrier_pred restricts to the full subcategory of finite sets whose
    carriers satisfy the (isomorphism-closed) predicate: the classifier then
    answers for that subcategory's basic fibration.  A given desc must be
    built over the basic fibration of p, which is then used as is.
    """
    if desc is None:
        fib = basic_fibration(p, bound)
        desc = DescCategory(fib, bound, carrier_pred=carrier_pred)
    else:
        fib = desc.diagram
        if not isinstance(fib, BasicFibration) or fib.p != p:
            raise CategoryError(f"desc is built over {getattr(fib, 'p', type(fib).__name__)!r}, "
                                f"not over the basic fibration of {p!r}")
    domain: Category = fib.c0
    if carrier_pred is not None:
        domain = FullSubcategory(fib.c0, lambda x: carrier_pred(x.carrier),
                                 name="restricted base")
    phi = comparison(fib, bound, desc=desc, domain=domain)

    def ess() -> Decision:
        for datum in desc.objects(bound):
            try:
                res = descend(fib, datum, check=False)
            except TheoremViolation as exc:
                raise TheoremViolation(f"datum failed to glue for {p!r}: {exc}")
            if carrier_pred is not None and not carrier_pred(res.glued.carrier):
                return Decision(False, datum, True)
        return Decision(True, None, True)

    report = is_equivalence(phi, bound, ess_surj=ess)
    verdict = {
        "Equivalence": EFFECTIVE,
        "FullyFaithfulOnly": DESCENT,
        "FaithfulOnly": ALMOST,
        "None": NOT_ALMOST,
    }[report.level]
    return ClassifyResult(verdict, report, fib, desc, phi)
