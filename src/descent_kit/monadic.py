"""Monads, Eilenberg-Moore categories, Beck-Chevalley mates, and the
comparison between descent data and algebras.

``benabou_roubaud`` builds the canonical functor Desc(p) -> EM(T_p) for the
monad T_p = p* Σ_p induced by the change-of-base adjunction, checks it is an
equivalence within the bound, and verifies the descent and Eilenberg-Moore
factorizations through C/E agree.  Any law failure is raised as a
TheoremViolation: on the basic fibration it is expected never.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import TheoremViolation
from .fincat import (EQUIVALENCE, Category, CategoryError, ComputableCategory,
                     Decision, EquivalenceReport, Functor, NatIso, NatTrans,
                     find_isomorphism, is_equivalence, is_isomorphism)
from .finset import FinFunction
from .cosimplicial import BasicFibration, basic_fibration
from .descent import (DescCategory, DescMor, DescentDatum, canonicalize_datum,
                      comparison, is_descent_datum)
from .slices import (Adjunction, CartFunctor, SliceCategory, SliceMor,
                     match_by_legs, sigma_pullback_adjunction)


@dataclass
class Monad:
    """An endofunctor with unit and multiplication."""

    t: Functor
    eta: NatTrans  # Id => T
    mu: NatTrans   # T∘T => T

    @property
    def base(self) -> Category:
        return self.t.src

    def check(self, bound: Optional[int] = None) -> list[str]:
        report = []
        cat = self.base
        for x in cat.objects(bound):
            tx = self.t.obj(x)
            if cat.compose(self.mu.at(x), self.eta.at(tx)) != cat.identity(tx):
                report.append(f"unit law mu∘(eta T) fails at {x}")
            if cat.compose(self.mu.at(x), self.t.mor(self.eta.at(x))) != cat.identity(tx):
                report.append(f"unit law mu∘(T eta) fails at {x}")
            lhs = cat.compose(self.mu.at(x), self.t.mor(self.mu.at(x)))
            rhs = cat.compose(self.mu.at(x), self.mu.at(tx))
            if lhs != rhs:
                report.append(f"associativity mu∘(T mu) = mu∘(mu T) fails at {x}")
        return report


def induced_monad(adj: Adjunction, bound: Optional[int] = None,
                  check: bool = True) -> Monad:
    """The monad R∘L of an adjunction; laws verified on enumerated objects."""
    t = adj.left.then(adj.right)
    mu = NatTrans(t.then(t), t,
                  lambda x: adj.right.mor(adj.counit.at(adj.left.obj(x))),
                  name="mu")
    monad = Monad(t, adj.unit, mu)
    if check:
        report = monad.check(bound)
        if report:
            raise TheoremViolation("adjunction does not induce a monad: " + "; ".join(report))
    return monad


@dataclass(frozen=True)
class Algebra:
    """An object with a structure map T(X) -> X satisfying the two laws."""

    x: object
    a: object  # morphism T(x) -> x

    def __repr__(self):
        return f"Alg({self.x!r})"


@dataclass(frozen=True)
class AlgMor:
    src: Algebra
    dst: Algebra
    m: object


def algebra_laws_hold(monad: Monad, x, a) -> bool:
    cat = monad.base
    if cat.compose(a, monad.eta.at(x)) != cat.identity(x):
        return False
    return cat.compose(a, monad.mu.at(x)) == cat.compose(a, monad.t.mor(a))


class EMCategory(ComputableCategory):
    """Algebras for a monad, enumerated by filtering all structure maps."""

    def __init__(self, monad: Monad, bound: int = 4):
        self.monad = monad
        self.default_bound = bound
        self._objects_cache: dict = {}
        self._hom_cache: dict = {}

    def objects(self, bound=None):
        bound = self.default_bound if bound is None else bound
        if bound not in self._objects_cache:
            out = []
            cat = self.monad.base
            for x in cat.objects(bound):
                tx = self.monad.t.obj(x)
                for a in cat.hom(tx, x):
                    if algebra_laws_hold(self.monad, x, a):
                        out.append(Algebra(x, a))
            self._objects_cache[bound] = out
        return list(self._objects_cache[bound])

    def hom(self, x: Algebra, y: Algebra):
        ck = (x, y)
        if ck not in self._hom_cache:
            cat = self.monad.base
            self._hom_cache[ck] = [
                AlgMor(x, y, h) for h in cat.hom(x.x, y.x)
                if cat.compose(h, x.a) == cat.compose(y.a, self.monad.t.mor(h))]
        return self._hom_cache[ck]

    def identity(self, x: Algebra):
        return AlgMor(x, x, self.monad.base.identity(x.x))

    def compose(self, g: AlgMor, f: AlgMor):
        if f.dst != g.src:
            raise CategoryError("non-composable algebra morphisms")
        return AlgMor(f.src, g.dst, self.monad.base.compose(g.m, f.m))

    def forgetful(self) -> Functor:
        return Functor(self, self.monad.base, lambda alg: alg.x, lambda m: m.m, name="U")


def em_comparison(adj: Adjunction, em: Optional[EMCategory] = None,
                  bound: int = 4) -> Functor:
    """K(X) = (R X, R eps_X): the canonical functor into the algebras.

    A given em is taken to be the algebras of the monad of adj, and its
    monad is used as is; without one, the monad is built and checked.
    """
    em = em if em is not None else EMCategory(induced_monad(adj, bound), bound)
    monad = em.monad

    def on_obj(x):
        alg = Algebra(adj.right.obj(x), adj.right.mor(adj.counit.at(x)))
        if not algebra_laws_hold(monad, alg.x, alg.a):
            raise TheoremViolation(f"comparison image is not an algebra at {x}")
        return alg

    return Functor(adj.right.src, em, on_obj,
                   lambda f: AlgMor(on_obj(f.src), on_obj(f.dst), adj.right.mor(f)),
                   name="K")


@dataclass
class BCSquare:
    """A square of functors with designated adjunctions on two parallel sides.

        A_w --f_a--> A_c
         |            |
        R_w          R_c      with L_w ⊣ R_w, L_c ⊣ R_c
         v            v
        B_w --f_b--> B_c

    phi fills the square: f_b ∘ R_w => R_c ∘ f_a.
    """

    f_a: Functor
    f_b: Functor
    adj_w: Adjunction
    adj_c: Adjunction
    phi: NatIso


def mate(square: BCSquare) -> NatTrans:
    """The mate L_c ∘ f_b => f_a ∘ L_w of the filling isomorphism.

    Orientation: unit of the w-side adjunction in, phi across, counit of the
    c-side adjunction out.
    """
    l_w, l_c = square.adj_w.left, square.adj_c.left
    cat = square.f_a.dst  # = A_c

    def component(x):
        lw_x = l_w.obj(x)
        step1 = l_c.mor(square.f_b.mor(square.adj_w.unit.at(x)))
        step2 = l_c.mor(square.phi.at(lw_x))
        step3 = square.adj_c.counit.at(square.f_a.obj(lw_x))
        return cat.compose(step3, cat.compose(step2, step1))

    return NatTrans(square.f_b.then(l_c), l_w.then(square.f_a), component, name="mate")


def is_beck_chevalley(square: BCSquare, bound: Optional[int] = None) -> Decision:
    """Componentwise invertibility of the mate on enumerated objects."""
    m = mate(square)
    cat = square.f_a.dst
    truncated = square.f_b.src.bounded
    for x in square.f_b.src.objects(bound):
        comp = m.at(x)
        if isinstance(comp, SliceMor):
            if not comp.fn.is_bijective():
                return Decision(False, (x, comp), truncated)
        elif not is_isomorphism(cat, comp):
            return Decision(False, (x, comp), truncated)
    return Decision(True, None, truncated)


def pullback_square_bc(p1: FinFunction, p2: FinFunction, q1: FinFunction,
                       q2: FinFunction, bound: int = 3) -> BCSquare:
    """The change-of-base square of a commuting square of finite sets.

        P --q2--> Y
        |q1       |p2      with p1 ∘ q1 = p2 ∘ q2
        v         v
        X --p1--> Z

    Slices: R_w = p1*: C/Z -> C/X, R_c = q2*: C/Y -> C/P, f_a = p2*,
    f_b = q1*, phi the canonical comparison q1* p1* => q2* p2*.
    """
    if q1.then(p1).mapping != q2.then(p2).mapping:
        raise CategoryError("square does not commute")
    cz = SliceCategory(p1.cod, bound)
    cx = SliceCategory(p1.dom, bound)
    cy = SliceCategory(p2.dom, bound)
    cp = SliceCategory(q1.dom, bound)
    from .slices import ChangeOfBase, comparison_iso
    r_w = ChangeOfBase(p1, cz, cx)
    r_c = ChangeOfBase(q2, cy, cp)
    f_a = ChangeOfBase(p2, cz, cy)
    f_b = ChangeOfBase(q1, cx, cp)
    phi = comparison_iso(r_w.then(f_b), f_a.then(r_c), "bc square")
    adj_w = sigma_pullback_adjunction(p1, cx, cz)
    adj_c = sigma_pullback_adjunction(q2, cp, cy)
    return BCSquare(f_a=f_a, f_b=f_b, adj_w=adj_w, adj_c=adj_c, phi=phi)


def chosen_pullback_bc_square(f: FinFunction, g: FinFunction, bound: int = 3) -> BCSquare:
    """The Beck-Chevalley square of the chosen pullback of a cospan."""
    from .finset import pullback
    pb = pullback(f, g)
    return pullback_square_bc(f, g, pb.pr1, pb.pr2, bound)


@dataclass
class BRResult:
    report: EquivalenceReport
    functor: Functor             # Desc(p) -> EM(T_p)
    desc: DescCategory
    em: EMCategory
    monad: Monad
    factorizations_agree: bool

    @property
    def verdict(self) -> str:
        """report.level: "Equivalence" or the failing level."""
        return self.report.level

    @property
    def equivalence(self) -> bool:
        return self.verdict == EQUIVALENCE


def datum_to_algebra(fib: BasicFibration, monad: Monad, datum: DescentDatum) -> Algebra:
    """The algebra structure a datum induces on its carrier.

    a: T W -> W sends (w, e) through the canonical identification of T W
    with the sigma of the first-projection pullback, then through rho, then
    the projection to W.
    """
    if not isinstance(monad.t, CartFunctor):
        raise CategoryError("monad endofunctor must track tops")
    w = datum.w
    tw = monad.t.obj(w)
    t_top = monad.t.top(w)
    d1w = fib.d1.obj(w)
    d1_top = fib.d1.top(w)
    # identify T W with d1(W) re-based along the omit-0 projection
    ident = match_by_legs(
        tw.carrier, [t_top, tw.to_base],
        d1w.carrier, [d1_top,
                      FinFunction.of(d1w.carrier, fib.p.dom,
                                     lambda u: fib.proj_omit0(d1w.to_base(u)))])
    d0_top = fib.d0.top(w)
    fn = FinFunction.of(tw.carrier, w.carrier,
                        lambda t: d0_top(datum.rho.fn(ident(t))))
    a = SliceMor(tw, w, fn)
    alg = Algebra(w, a)
    if not algebra_laws_hold(monad, w, a):
        raise TheoremViolation(f"datum {datum} does not induce an algebra")
    return alg


def algebra_to_datum(fib: BasicFibration, monad: Monad, alg: Algebra) -> DescentDatum:
    """The gluing isomorphism an algebra induces; inverse of datum_to_algebra."""
    if not isinstance(monad.t, CartFunctor):
        raise CategoryError("monad endofunctor must track tops")
    x = alg.x
    tx = monad.t.obj(x)
    t_top = monad.t.top(x)
    d1x, d0x = fib.d1.obj(x), fib.d0.obj(x)
    d1_top, d0_top = fib.d1.top(x), fib.d0.top(x)
    # for u over (e0, e1) with top w: a((w, e1)) is the transported element
    keyed = {}
    for t in tx.carrier.elements:
        keyed[(t_top(t), tx.to_base(t))] = t
    target = {}
    for v in d0x.carrier.elements:
        target[(d0_top(v), d0x.to_base(v))] = v

    def component(u):
        base = d1x.to_base(u)
        t = keyed[(d1_top(u), fib.proj_omit0(base))]
        return target[(alg.a.fn(t), base)]

    fn = FinFunction.of(d1x.carrier, d0x.carrier, component)
    rho = SliceMor(d1x, d0x, fn)
    if not fn.is_bijective():
        raise TheoremViolation(f"algebra {alg} does not induce an invertible datum")
    ok, which = is_descent_datum(fib, x, rho)
    if not ok:
        raise TheoremViolation(f"algebra {alg} induces a datum failing {which}")
    return DescentDatum(x, rho)


def benabou_roubaud(p: FinFunction, bound: int = 3) -> BRResult:
    """Grothendieck descent along p against monadicity of p*.

    Builds the canonical Desc(p) -> EM(T_p), datum by datum; verifies
    algebra laws, functoriality, the equivalence within bound, and that the
    descent and Eilenberg-Moore factorizations through C/E agree up to
    natural isomorphism.
    """
    fib = basic_fibration(p, bound)
    desc = DescCategory(fib, bound)
    adj = sigma_pullback_adjunction(p, fib.c1, fib.c0)
    triangle_report = adj.check_triangles(bound)
    if triangle_report:
        raise TheoremViolation("; ".join(triangle_report))
    monad = induced_monad(adj, bound)
    em = EMCategory(monad, bound)

    def on_obj(datum):
        return datum_to_algebra(fib, monad, datum)

    def on_mor(dm: DescMor):
        am = AlgMor(on_obj(dm.src), on_obj(dm.dst), dm.m)
        cat = monad.base
        if cat.compose(am.m, am.src.a) != cat.compose(am.dst.a, monad.t.mor(dm.m)):
            raise TheoremViolation(f"descent morphism {dm} is not an algebra morphism")
        return am

    functor = Functor(desc, em, on_obj, on_mor, name="Desc→EM")

    def ess() -> Decision:
        # constructive: every algebra comes from its own datum on the nose,
        # and connects to the enumerated canonical representative by an iso
        for alg in em.objects(bound):
            datum = algebra_to_datum(fib, monad, alg)
            if on_obj(datum) != alg:
                raise TheoremViolation(
                    f"algebra {alg} does not round-trip through its datum")
            rep, iso = canonicalize_datum(fib, datum)
            connecting = functor.mor(DescMor(rep, datum, SliceMor(
                rep.w, datum.w, iso.m.fn.inverse())))
            if not connecting.m.fn.is_bijective():
                return Decision(False, alg, True)
        return Decision(True, None, True)

    report = is_equivalence(functor, bound, ess_surj=ess)

    phi = comparison(fib, bound, desc=desc)
    kcomp = em_comparison(adj, em, bound)
    factor_ok = _factorizations_agree(fib, desc, em, functor, phi, kcomp, bound)
    return BRResult(report, functor, desc, em, monad, factor_ok)


def _factorizations_agree(fib, desc, em, functor, phi, kcomp, bound) -> bool:
    """Desc and EM factorizations of p* through C/E match.

    Forgetfuls commute with the canonical functor on the nose; the two
    comparisons agree up to a natural isomorphism, found componentwise and
    checked for naturality.
    """
    u_desc, u_em = desc.forgetful(), em.forgetful()
    c0 = fib.c0
    for x in c0.objects(bound):
        if u_desc.obj(phi.obj(x)) != fib.d.obj(x):
            return False
        if u_em.obj(kcomp.obj(x)) != fib.d.obj(x):
            return False
    for datum in desc.objects(bound):
        if u_em.obj(functor.obj(datum)) != u_desc.obj(datum):
            return False

    components = {}
    for x in c0.objects(bound):
        left = functor.obj(phi.obj(x))
        right = kcomp.obj(x)
        if left == right:
            components[x] = em.identity(left)
            continue
        found = find_isomorphism(em, left, right)
        if found is None:
            return False
        components[x] = found[0]
    for x in c0.objects(bound):
        for y in c0.objects(bound):
            for f in c0.hom(x, y):
                lhs = em.compose(components[y], functor.mor(phi.mor(f)))
                rhs = em.compose(kcomp.mor(f), components[x])
                if lhs != rhs:
                    return False
    return True
