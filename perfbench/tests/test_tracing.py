"""The tracer: install guard, span nesting and the ratios."""

import pytest

import tracing
from tracing import Span, Tracer, layer_metrics, summarize


def _originals():
    tracing.package_modules()
    from descent_kit import cosimplicial, descent, finset, slices
    return finset, slices, cosimplicial, descent


def test_install_wraps_every_binding_and_uninstall_restores():
    finset, slices, cosimplicial, descent = _originals()
    pullback, validate = finset.pullback, cosimplicial.validate_coherence
    obj = slices.ChangeOfBase.obj
    assert slices.pullback is pullback and descent.validate_coherence is validate
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = finset.pullback
        assert wrapped is not pullback
        assert slices.pullback is wrapped and cosimplicial.pullback is wrapped
        assert descent.validate_coherence is cosimplicial.validate_coherence
        assert descent.validate_coherence is not validate
        assert "obj" in vars(slices.ChangeOfBase)
    finally:
        tracer.uninstall()
    assert finset.pullback is pullback and slices.pullback is pullback
    assert cosimplicial.pullback is pullback
    assert descent.validate_coherence is validate
    assert slices.ChangeOfBase.obj is obj and "obj" not in vars(slices.ChangeOfBase)


def test_missing_function_fails_loudly_and_patches_nothing(monkeypatch):
    finset, *_ = _originals()
    pullback = finset.pullback
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + [("finset", "no_such_function")])
    with pytest.raises(tracing.TraceInstallError, match="no_such_function"):
        Tracer().install()
    assert finset.pullback is pullback


def test_binding_left_unwrapped_fails_loudly(monkeypatch):
    finset, slices, *_ = _originals()
    pullback = finset.pullback
    patch = Tracer._patch

    def skip_slices(self, owner, attr, wrapper):
        if owner is not slices:
            patch(self, owner, attr, wrapper)

    monkeypatch.setattr(Tracer, "_patch", skip_slices)
    with pytest.raises(tracing.TraceInstallError, match="slices"):
        Tracer().install()
    assert finset.pullback is pullback


def test_real_spans_nest_and_self_time_is_within_total():
    _originals()
    from descent_kit import descent
    from descent_kit.finset import FinFunction, FinSetObj
    p = FinFunction(FinSetObj(("a", "b")), FinSetObj(("z",)), (("a", "z"), ("b", "z")))
    tracer = Tracer()
    tracer.install()
    try:
        assert descent.classify(p, 2).verdict == "Effective"
    finally:
        tracer.uninstall()
    spans = tracer.spans
    assert spans and tracer.built > 0
    for s in spans:
        assert s.start <= s.end
        if s.parent >= 0:
            parent = spans[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    agg = summarize(spans, tracer.built)
    names = {s.name for s in spans}
    assert "finset.pullback" in names and "slices.slice_isos" in names
    for name in names:
        assert 0 <= agg[f"{name}.self_s"] <= agg[f"{name}.total_s"] + 1e-9
    assert agg["descent.classify.calls"] == 1
    assert agg["descent.classify.total_s"] == pytest.approx(
        sum(s.end - s.start for s in spans if s.name == "descent.classify"))


def _span(spans, name, parent, start, end, size=0, call=True):
    spans.append(Span(name, parent, start, end, call=call, size=size))
    return len(spans) - 1


def test_ratios_and_times_from_a_hand_built_span_list():
    spans = []
    # ChangeOfBase.mor twice: one miss (opens mediating_map, which opens a
    # pullback), one cache hit.  A stray pullback outside mediating_map.
    mor = _span(spans, "slices.ChangeOfBase.mor", -1, 0.0, 10.0)
    mm = _span(spans, "finset.mediating_map", mor, 1.0, 7.0)
    _span(spans, "finset.pullback", mm, 2.0, 5.0)
    _span(spans, "slices.ChangeOfBase.mor", -1, 10.0, 11.0)
    _span(spans, "finset.pullback", -1, 11.0, 12.0)
    # Enumeration: 4 datum checks, 1 datum kept; one check outside it.
    enum = _span(spans, "descent.enumerate_descent_data", -1, 20.0, 30.0, size=1)
    for t in range(4):
        _span(spans, "descent.is_descent_datum", enum, 21.0 + t, 21.5 + t)
    _span(spans, "descent.is_descent_datum", -1, 31.0, 32.0)
    # EM objects: 3 law checks, 2 algebras; a cached call adds nothing.
    em = _span(spans, "monadic.EMCategory.objects", -1, 40.0, 50.0, size=2)
    for t in range(3):
        _span(spans, "monadic.algebra_laws_hold", em, 41.0 + t, 42.0 + t)
    _span(spans, "monadic.EMCategory.objects", -1, 50.0, 50.5, size=2)
    # A generator resumed twice counts one call; a nested same-name span
    # is not counted twice in total_s.
    _span(spans, "slices.slice_isos", -1, 60.0, 61.0)
    _span(spans, "slices.slice_isos", -1, 62.0, 63.0, call=False)
    outer = _span(spans, "fincat.find_isomorphism", -1, 70.0, 80.0)
    _span(spans, "fincat.find_isomorphism", outer, 71.0, 75.0)

    metrics = {k: v for k, (v, _) in layer_metrics(summarize(spans, built=9)).items()}
    assert metrics["finset.pullback_per_mediating_map"] == 1.0
    assert metrics["slices.ChangeOfBase.mor.miss_ratio"] == 0.5
    assert metrics["descent.datum_accept_ratio"] == 0.25
    assert metrics["monadic.algebra_accept_ratio"] == pytest.approx(2 / 3)
    assert metrics["finset.FinFunction.built"] == 9
    assert metrics["finset.pullback.calls"] == 2
    assert metrics["slices.ChangeOfBase.mor.total_s"] == 11.0
    assert metrics["slices.ChangeOfBase.mor.self_s"] == 5.0
    assert metrics["finset.mediating_map.self_s"] == 3.0
    assert metrics["slices.slice_isos.calls"] == 1
    assert metrics["slices.slice_isos.total_s"] == 2.0
    assert metrics["fincat.find_isomorphism.calls"] == 2
    assert metrics["fincat.find_isomorphism.total_s"] == 10.0
    assert metrics["fincat.find_isomorphism.self_s"] == 10.0
    assert metrics["monadic.EMCategory.hom.calls"] == 0
