"""Monads, Eilenberg-Moore categories, Beck-Chevalley mates, and the
comparison between descent data and algebras.

``benabou_roubaud`` builds the canonical functor Desc(p) -> EM(T_p) for the
monad T_p = p* Σ_p of the adjunction Σ_p ⊣ p*, whose p* is the augmentation
d of the basic fibration itself (Phi, T_p and K share it), checks it is an
equivalence within the bound, and verifies the descent and Eilenberg-Moore
factorizations through C/E agree.  Any law failure is raised as a
TheoremViolation: on the basic fibration it is expected never.
A datum and an algebra on one carrier determine each other through the
identification T W ≅ d1(W); both directions lift each element along its
legs (``slices.CartFunctor.lift``), as the universal property gives it.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import TheoremViolation
from .fincat import (EQUIVALENCE, Category, CategoryError, ComputableCategory,
                     Decision, EquivalenceReport, Functor, NatTrans, find_isomorphism,
                     is_equivalence, naturality_failures, path_ends)
from .finset import FinFunction, FinSetError, follow, pullback
from .cosimplicial import BasicFibration, basic_fibration
from .descent import (DescCategory, DescMor, DescentDatum, comparison,
                      is_descent_datum)
from .slices import (Adjunction, CartFunctor, ChangeOfBase, SliceCategory,
                     SliceMor, comparison_iso, sigma_pullback_adjunction)


class Monad(NamedTuple):
    """An endofunctor with unit and multiplication."""

    t: Functor
    eta: NatTrans  # Id => T
    mu: NatTrans   # T∘T => T

    @property
    def base(self) -> Category:
        return self.t.src

    def check(self) -> list[str]:
        report = []
        cat = self.base
        for x in cat.objects():
            tx = self.t.obj(x)
            mu_x, id_tx = self.mu.at(x), [cat.identity(tx)]
            if not cat.commutes([self.eta.at(tx), mu_x], id_tx):
                report.append(f"unit law mu∘(eta T) fails at {x}")
            if not cat.commutes([self.t.image(self.eta.at(x)), mu_x], id_tx):
                report.append(f"unit law mu∘(T eta) fails at {x}")
            if not cat.commutes([self.t.image(mu_x), mu_x], [self.mu.at(tx), mu_x]):
                report.append(f"associativity mu∘(T mu) = mu∘(mu T) fails at {x}")
        return report


def induced_monad(adj: Adjunction) -> Monad:
    """The monad R∘L of an adjunction; laws verified on enumerated objects."""
    t = adj.left.then(adj.right)
    mu = NatTrans(t.then(t), t,
                  lambda x: adj.right.mor(adj.counit.at(adj.left.obj(x))),
                  name="mu")
    monad = Monad(t, adj.unit, mu)
    report = monad.check()
    if report:
        raise TheoremViolation("adjunction does not induce a monad: " + "; ".join(report))
    return monad


class Algebra(NamedTuple):
    """An object with a structure map T(X) -> X satisfying the two laws."""

    x: object
    a: SliceMor  # T(x) -> x

    def __repr__(self):
        return f"Alg({self.x!r}, {self.a.fn!r})"


class AlgMor(NamedTuple):
    src: Algebra
    dst: Algebra
    m: object


def algebra_laws_hold(monad: Monad, x, a) -> bool:
    """Whether a: T x -> x, a morphism of the base, satisfies the unit and
    multiplication laws.  That a is a morphism is its constructor's check:
    over C/E, a triangle that does not commute over E is never built."""
    cat = monad.base
    if not cat.commutes([monad.eta.at(x), a], [cat.identity(x)]):
        return False
    return cat.commutes([monad.mu.at(x), a], [monad.t.image(a), a])


def is_algebra_morphism(monad: Monad, x: Algebra, y: Algebra, h) -> bool:
    """Whether h: x.x -> y.x commutes with the structure maps: h∘a = b∘T(h)."""
    return monad.base.commutes([x.a, h], [monad.t.image(h), y.a])


class EMCategory(ComputableCategory):
    """Algebras for a monad, enumerated by filtering all structure maps
    on the enumerated objects of its base."""

    def __init__(self, monad: Monad):
        super().__init__()
        self.monad = monad

    def _objects(self):
        out = []
        cat = self.monad.base
        for x in cat.objects():
            tx = self.monad.t.obj(x)
            for a in cat.hom(tx, x):
                if algebra_laws_hold(self.monad, x, a):
                    out.append(Algebra(x, a))
        return out

    def _hom(self, x: Algebra, y: Algebra):
        return [AlgMor(x, y, h) for h in self.monad.base.hom(x.x, y.x)
                if is_algebra_morphism(self.monad, x, y, h)]

    def identity(self, x: Algebra):
        return AlgMor(x, x, self.monad.base.identity(x.x))

    def is_isomorphism(self, f: AlgMor) -> bool:
        """Whether f's underlying map is: the forgetful functor to the base
        reflects isomorphisms.  Applying T to h⁻¹ turns h ∘ a = b ∘ T(h)
        into h⁻¹ ∘ b = a ∘ T(h⁻¹), so the inverse of an algebra morphism
        is one, and no inverse is searched for."""
        return self.monad.base.is_isomorphism(f.m)

    def compose(self, g: AlgMor, f: AlgMor):
        if f.dst != g.src:
            raise CategoryError("non-composable algebra morphisms")
        return AlgMor(f.src, g.dst, self.monad.base.compose(g.m, f.m))

    def commutes(self, lhs: list[AlgMor], rhs: list[AlgMor]) -> bool:
        """Equal endpoints and equal underlying composites in the base."""
        ends = path_ends(lhs, "algebra morphisms")
        if path_ends(rhs, "algebra morphisms") != ends:
            return False
        return self.monad.base.commutes([f.m for f in lhs], [f.m for f in rhs])


class EMComparison(Functor):
    """The canonical functor K into the algebras em of the monad of adj:
    K(X) = (R X, R eps_X), with R and eps those of adj; em's monad is used
    as is."""

    def __init__(self, adj: Adjunction, em: EMCategory):
        super().__init__(adj.right.src, em, name="K")
        self.adj = adj

    def _on_obj(self, x):
        right = self.adj.right
        alg = Algebra(right.obj(x), right.mor(self.adj.counit.at(x)))
        if not algebra_laws_hold(self.dst.monad, alg.x, alg.a):
            raise TheoremViolation(f"comparison image is not an algebra at {x}")
        return alg

    def _on_mor(self, f):
        return AlgMor(self.obj(f.src), self.obj(f.dst), self.adj.right.mor(f))


class BCSquare(NamedTuple):
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
    phi: NatTrans  # invertible


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


def is_beck_chevalley(square: BCSquare) -> Decision:
    """Componentwise invertibility of the mate on enumerated objects."""
    m = mate(square)
    cat = square.f_a.dst
    truncated = square.f_b.src.bounded
    for x in square.f_b.src.objects():
        comp = m.at(x)
        if not cat.is_isomorphism(comp):
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
    r_w = ChangeOfBase(p1, cz, cx)
    r_c = ChangeOfBase(q2, cy, cp)
    f_a = ChangeOfBase(p2, cz, cy)
    f_b = ChangeOfBase(q1, cx, cp)
    phi = comparison_iso(r_w.then(f_b), f_a.then(r_c), "bc square")
    return BCSquare(f_a=f_a, f_b=f_b, adj_w=sigma_pullback_adjunction(r_w),
                    adj_c=sigma_pullback_adjunction(r_c), phi=phi)


def chosen_pullback_bc_square(f: FinFunction, g: FinFunction, bound: int = 3) -> BCSquare:
    """The Beck-Chevalley square of the chosen pullback of a cospan."""
    pb = pullback(f, g)
    return pullback_square_bc(f, g, pb.pr1, pb.pr2, bound)


class BRResult(NamedTuple):
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

    a: T W -> W sends (v, e) to the element of d1(W) with top v over
    (w(v), e), a lift, then through rho, then to its top in d0(W).
    """
    t, w = monad.t, datum.w
    if not isinstance(t, CartFunctor):
        raise CategoryError("monad endofunctor must track tops")
    tw = t.obj(w)
    elements = tw.dom.elements
    tops = t.legs(w)
    to_d1 = fib.d1.lift(w, tw.dom, tops, list(zip(w.values(tops), tw.values(elements))))
    a = SliceMor(tw, w, FinFunction(tw.dom, w.dom, tuple(zip(elements, fib.d0.legs(
        w, follow([to_d1, datum.rho.fn], elements))))))
    if not algebra_laws_hold(monad, w, a):
        raise TheoremViolation(f"datum {datum} does not induce an algebra")
    return Algebra(w, a)


def algebra_to_datum(fib: BasicFibration, monad: Monad, alg: Algebra) -> DescentDatum:
    """The gluing isomorphism an algebra induces; inverse of datum_to_algebra.

    rho lifts u = (v, (e0, e1)) in d1(X) through T to (v, e1), applies a,
    and lifts the result through d0 over the same base pair (e0, e1).  The
    structure map is a triangle, so it commutes over E: ``SliceMor``
    refuses one that does not where it is built.
    """
    t, x = monad.t, alg.x
    if not isinstance(t, CartFunctor):
        raise CategoryError("monad endofunctor must track tops")
    d1x = fib.d1.obj(x)
    elements = d1x.dom.elements
    pairs = d1x.values(elements)
    try:
        to_t = t.lift(x, d1x.dom, fib.d1.legs(x), fib.d0.u.values(pairs))
        fn = fib.d0.lift(x, d1x.dom, follow([to_t, alg.a.fn], elements), pairs)
        if not fn.is_bijective():
            raise FinSetError(f"{fn!r} is not a bijection")
    except FinSetError as exc:
        raise TheoremViolation(f"algebra {alg} does not induce an invertible datum: "
                               f"{exc}") from exc
    rho = SliceMor(d1x, fib.d0.obj(x), fn)
    ok, which = is_descent_datum(fib, x, rho)
    if not ok:
        raise TheoremViolation(f"algebra {alg} induces a datum failing {which}")
    return DescentDatum(x, rho)


class _DescToEM(Functor):
    """Desc(p) -> EM(T_p), datum by datum; morphisms keep their underlying map."""

    def _on_obj(self, datum):
        return datum_to_algebra(self.src.diagram, self.dst.monad, datum)

    def _on_mor(self, dm: DescMor):
        am = AlgMor(self.obj(dm.src), self.obj(dm.dst), dm.m)
        if not is_algebra_morphism(self.dst.monad, am.src, am.dst, dm.m):
            raise TheoremViolation(f"descent morphism {dm} is not an algebra morphism")
        return am


def benabou_roubaud(p: FinFunction, bound: int = 3) -> BRResult:
    """Grothendieck descent along p against monadicity of p*.

    Builds the canonical Desc(p) -> EM(T_p), datum by datum; verifies
    algebra laws, functoriality, the equivalence within bound, and that the
    descent and Eilenberg-Moore factorizations through C/E agree on the
    nose.  Each algebra is connected to the enumerated datum rep on its
    carrier by ``find_isomorphism(desc, rep, datum)``, the first morphism
    that Desc(p) decides invertible, and that morphism is mapped; an
    algebra with no such morphism fails essential surjectivity.
    """
    fib = basic_fibration(p, bound)
    desc = DescCategory(fib, bound)
    adj = sigma_pullback_adjunction(fib.d)
    triangle_report = adj.check_triangles()
    if triangle_report:
        raise TheoremViolation("; ".join(triangle_report))
    monad = induced_monad(adj)
    em = EMCategory(monad)

    functor = _DescToEM(desc, em, name="Desc→EM")

    def ess() -> Decision:
        # constructive: each algebra's own datum is isomorphic in Desc(p) to
        # the enumerated datum on its carrier; mapping the iso raises unless
        # it is an algebra morphism
        enumerated = {d.w: d for d in desc.objects()}
        for alg in em.objects():
            datum = algebra_to_datum(fib, monad, alg)
            if functor.obj(datum) != alg:
                raise TheoremViolation(
                    f"algebra {alg} does not round-trip through its datum")
            rep = enumerated.get(alg.x)
            iso = None if rep is None else find_isomorphism(desc, rep, datum)
            if iso is None:
                return Decision(False, alg, True)
            functor.mor(iso)
        return Decision(True, None, True)

    report = is_equivalence(functor, ess_surj=ess)

    phi = comparison(desc)
    kcomp = EMComparison(adj, em)
    factor_ok = _factorizations_agree(fib, em, functor, phi, kcomp)
    return BRResult(report, functor, desc, em, monad, factor_ok)


def _factorizations_agree(fib, em, functor, phi, kcomp) -> bool:
    """Desc and EM factorizations of p* through C/E match on the nose:
    F∘Phi equals the comparison K on every object, and on morphisms by the
    naturality of the identity components F∘Phi => K, checked on the
    generators of C/B.  That the forgetfuls commute with Phi, K and F holds
    by construction: Phi(x) is a datum on d(x), K's R is ``fib.d`` itself,
    and F sends a datum on w to an algebra on w."""
    for x in fib.c0.objects():
        if functor.obj(phi.obj(x)) != kcomp.obj(x):
            return False
    return not naturality_failures(phi.then(functor), kcomp,
                                   lambda x: em.identity(kcomp.obj(x)))
