"""Per-layer tracing from outside the library.

``Tracer.install`` wraps the public functions named in TARGETS in every
``descent_kit`` module namespace that binds them, so a call made through
``from .finset import pullback`` in ``slices`` is seen as well as one made
in ``finset``.  Each call records a span: name, start, end and the span
that caused it (the innermost wrapped call still running).  Work done by
unwrapped helpers shows as self time of the nearest wrapped caller.

The install fails loudly when a named function is missing or when some
module still binds an unwrapped original, so a rename in the library reads
as an error rather than as zero calls.  ``uninstall`` restores the
originals.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time

PACKAGE = "descent_kit"

# (module, qualified name) of every traced public function.
TARGETS = [
    ("finset", "pullback"), ("finset", "mediating_map"), ("finset", "quotient"),
    ("finset", "FinFunction.then"),
    ("slices", "ChangeOfBase.obj"), ("slices", "ChangeOfBase.mor"),
    ("slices", "SliceCategory.objects"), ("slices", "SliceCategory.hom"),
    ("slices", "slice_isos"), ("slices", "match_by_legs"),
    ("cosimplicial", "basic_fibration"), ("cosimplicial", "validate_coherence"),
    ("descent", "classify"), ("descent", "comparison"),
    ("descent", "enumerate_descent_data"), ("descent", "is_descent_datum"),
    ("descent", "canonicalize_datum"), ("descent", "DescCategory.hom"),
    ("descent", "descend"),
    ("fincat", "is_faithful"), ("fincat", "is_full"), ("fincat", "is_equivalence"),
    ("fincat", "find_isomorphism"),
    ("monadic", "benabou_roubaud"), ("monadic", "induced_monad"),
    ("monadic", "EMCategory.objects"), ("monadic", "EMCategory.hom"),
    ("monadic", "algebra_laws_hold"), ("monadic", "datum_to_algebra"),
    ("monadic", "algebra_to_datum"),
]
SPAN_NAMES = [f"{m}.{q}" for m, q in TARGETS]
# Spans that record the length of their result (accept ratios, hom-set sizes).
SIZED = {"descent.enumerate_descent_data", "monadic.EMCategory.objects",
         "slices.SliceCategory.hom", "descent.DescCategory.hom"}
# Spans whose result is compared by identity with earlier results: a list
# handed out twice came from the callee's cache.
HIT_TRACKED = {"slices.SliceCategory.hom", "descent.DescCategory.hom"}
BUILT = "finset.FinFunction.built"
_BUILT_HOOK = ("finset", "FinFunction.__post_init__")


class TraceInstallError(RuntimeError):
    """A traced function is missing or could not be wrapped everywhere."""


class Span:
    """One traced call, or one resumption of a traced generator.

    ``parent`` is the index of the enclosing span in the tracer's list, or
    -1.  ``call`` is False for the later resumptions of a generator, so
    that calls count invocations.  ``size`` is the result length for SIZED
    spans, and ``hit`` marks a result already handed out before.
    """

    __slots__ = ("name", "parent", "start", "end", "call", "size", "hit")

    def __init__(self, name, parent, start, end=0.0, call=True, size=0, hit=False):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.call = call
        self.size = size
        self.hit = hit


def package_modules() -> list:
    """Import and return every module of the library package."""
    pkg = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _resolve(module: str, qualname: str):
    mod = sys.modules.get(f"{PACKAGE}.{module}")
    owner, attr = mod, qualname
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(mod, cls_name, None) if mod is not None else None
    fn = getattr(owner, attr, None) if owner is not None else None
    if not callable(fn):
        raise TraceInstallError(f"{PACKAGE}.{module}.{qualname} is missing")
    return owner, attr, fn


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.built = 0
        self._stack: list[int] = []
        self._handed_out: dict = {}
        self._restore: list = []

    def reset(self):
        """Drop the spans recorded so far (between operations)."""
        self.spans.clear()
        self._handed_out.clear()
        self.built = 0

    def install(self):
        modules = package_modules()
        try:
            originals = []
            for module, qualname in TARGETS:
                owner, attr, fn = _resolve(module, qualname)
                name = f"{module}.{qualname}"
                wrapper = self._wrap_gen(name, fn) if inspect.isgeneratorfunction(fn) \
                    else self._wrap(name, fn)
                if "." in qualname:
                    self._patch(owner, attr, wrapper)
                else:
                    originals.append((name, fn))
                    for mod in modules:
                        for key, val in list(vars(mod).items()):
                            if val is fn:
                                self._patch(mod, key, wrapper)
            owner, attr, fn = _resolve(*_BUILT_HOOK)
            self._patch(owner, attr, self._counting(fn))
            for name, fn in originals:
                for mod in modules:
                    for key, val in vars(mod).items():
                        if val is fn:
                            raise TraceInstallError(
                                f"{mod.__name__}.{key} still binds the unwrapped {name}")
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._restore:
            owner, attr, had, old = self._restore.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def _patch(self, owner, attr, wrapper):
        had = attr in vars(owner)
        self._restore.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def _open(self, name, call=True) -> Span:
        stack = self._stack
        span = Span(name, stack[-1] if stack else -1, 0.0, call=call)
        stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        sized, tracked = name in SIZED, name in HIT_TRACKED
        handed_out = self._handed_out

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if sized:
                span.size = len(result)
            if tracked:
                span.hit = id(result) in handed_out
                handed_out[id(result)] = result
            return result

        return wrapper

    def _wrap_gen(self, name, fn):
        # Each resumption is its own span, so time spent by the consumer
        # between items is not charged to the generator.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            call = True
            while True:
                span = self._open(name, call)
                call = False
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                yield value

        return wrapper

    def _counting(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.built += 1
            return fn(*args, **kwargs)

        return wrapper


def summarize(spans: list[Span], built: int = 0) -> dict:
    """Additive per-layer totals of one span list.

    Per span name: calls, total_s (outermost spans of that name only, so
    recursion is not counted twice) and self_s (duration minus the
    durations of direct children).  Also the numerators and denominators
    of the ratios, under keys starting with "_".
    """
    agg: dict = {BUILT: built}
    child_time = [0.0] * len(spans)
    child_names: list = [None] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
            names = child_names[s.parent]
            if names is None:
                names = child_names[s.parent] = set()
            names.add(s.name)

    def add(key, value):
        agg[key] = agg.get(key, 0) + value

    for i, s in enumerate(spans):
        dur = s.end - s.start
        add(f"{s.name}.calls", int(s.call))
        add(f"{s.name}.self_s", dur - child_time[i])
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            add(f"{s.name}.total_s", dur)
        parent_name = spans[s.parent].name if s.parent >= 0 else None
        if s.name in HIT_TRACKED:
            add(f"{s.name}.results", s.size)
            add(f"_{s.name}.hits", int(s.hit))
        if s.name == "finset.pullback" and parent_name == "finset.mediating_map":
            add("_pullbacks_under_mediating_map", 1)
        elif s.name == "slices.ChangeOfBase.mor" and "finset.mediating_map" in (
                child_names[i] or ()):
            add("_mor_misses", 1)
        elif s.name == "descent.is_descent_datum" and \
                parent_name == "descent.enumerate_descent_data":
            add("_datum_checks", 1)
        elif s.name == "descent.enumerate_descent_data":
            add("_data_kept", s.size)
        elif s.name == "monadic.algebra_laws_hold" and \
                parent_name == "monadic.EMCategory.objects":
            add("_algebra_checks", 1)
        elif s.name == "monadic.EMCategory.objects" and \
                "monadic.algebra_laws_hold" in (child_names[i] or ()):
            add("_algebras_found", s.size)
    return agg


def merge(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0) + value
    return out


def _ratio(num, den) -> float:
    # A ratio with no attempts reads 0; its base is the matching .calls metric.
    return num / den if den else 0.0


def layer_metrics(agg: dict) -> dict:
    """Every per-layer metric, as name -> (value, unit), from summed totals."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (agg.get(f"{name}.calls", 0), "count")
        out[f"{name}.total_s"] = (agg.get(f"{name}.total_s", 0.0), "s")
        out[f"{name}.self_s"] = (agg.get(f"{name}.self_s", 0.0), "s")
    out[BUILT] = (agg.get(BUILT, 0), "count")
    for name in sorted(HIT_TRACKED):
        calls = agg.get(f"{name}.calls", 0)
        out[f"{name}.results"] = (agg.get(f"{name}.results", 0), "count")
        out[f"{name}.hit_ratio"] = (_ratio(agg.get(f"_{name}.hits", 0), calls), "ratio")
    out["finset.pullback_per_mediating_map"] = (_ratio(
        agg.get("_pullbacks_under_mediating_map", 0),
        agg.get("finset.mediating_map.calls", 0)), "ratio")
    out["slices.ChangeOfBase.mor.miss_ratio"] = (_ratio(
        agg.get("_mor_misses", 0), agg.get("slices.ChangeOfBase.mor.calls", 0)), "ratio")
    out["descent.datum_accept_ratio"] = (_ratio(
        agg.get("_data_kept", 0), agg.get("_datum_checks", 0)), "ratio")
    out["monadic.algebra_accept_ratio"] = (_ratio(
        agg.get("_algebras_found", 0), agg.get("_algebra_checks", 0)), "ratio")
    return out
