"""Packaging guards: declared entry points exist, the library never
relies on ``assert``, which ``python -O`` strips, no library or test
module imports a name it never uses, no library code compares composites
built by ``compose`` or follows functor images built by ``mor``, no
library code sorts labels (``test_library_never_sorts``), no library code
groups a map by its image outside ``FinFunction.fibers``
(``test_library_groups_a_map_by_its_image_only_in_fibers``), no library
code matches leg tables and only the basic fibration builds a mediating
map (``test_library_lifts_and_never_matches_legs``), no library code
asks a hom-set whether it holds a morphism
(``test_library_never_asks_a_hom_set_for_membership``), no library
module imports ``dataclasses`` or ``inspect``
(``test_library_never_imports_dataclasses``), every public name is used
or listed, only builders and enumerators take a ``bound``
(``test_only_builders_and_enumerators_take_a_bound``), the most numerous
value classes stay slotted, a
dropped diagram leaves no cyclic garbage, memo keys store their hash, and
the benchmark can still drive the library."""

import ast
import gc
import importlib
import pathlib
import sys

import pytest

from descent_kit.cosimplicial import basic_fibration, validate_coherence
from descent_kit.descent import DescCategory, DescentDatum, DescMor, classify
from descent_kit.finset import FinFunction, FinSetObj
from descent_kit.monadic import benabou_roubaud
from descent_kit.mutations import invert_theta
from descent_kit.slices import SliceMor

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_script_entry_point_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{name} -> {target} is not callable"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted((ROOT / "src" / "descent_kit").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_library_never_sorts():
    """No library code calls ``sorted`` or ``.sort``: every enumeration
    follows carrier order, so a label needs a hash, never an ordering."""
    found = []
    for path in sorted((ROOT / "src" / "descent_kit").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and (isinstance(node.func, ast.Name) and node.func.id == "sorted"
                       or isinstance(node.func, ast.Attribute) and node.func.attr == "sort")]
    assert found == []


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "annotations":
                    bound = alias.asname or alias.name.split(".")[0]
                    imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_library_has_no_unused_imports():
    """Neither the library nor its tests import a name they never use."""
    found = []
    for path in sorted([*(ROOT / "src" / "descent_kit").rglob("*.py"),
                        *(ROOT / "tests").rglob("*.py")]):
        tree = ast.parse(path.read_text(), filename=str(path))
        where = path.relative_to(ROOT)
        found += [f"{where}:{line} {name}" for line, name in _unused_imports(tree)]
    assert found == []


def _built_to_compare(tree):
    """Lines where ``==`` or ``!=`` compares the result of a ``.compose(...)``
    call, or where an argument of a ``.commutes(...)`` call holds a
    ``.mor(...)`` call; directly or through a name a function binds to one."""

    def call(node, attr):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == attr)

    found = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.FunctionDef)):
            continue
        bound = {attr: set() if isinstance(scope, ast.Module) else {
            target.id for node in ast.walk(scope)
            if isinstance(node, ast.Assign) and call(node.value, attr)
            for target in node.targets if isinstance(target, ast.Name)}
            for attr in ("compose", "mor")}

        def built(node, attr):
            return call(node, attr) or isinstance(node, ast.Name) and node.id in bound[attr]

        for node in ast.walk(scope):
            if (isinstance(node, ast.Compare)
                    and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                    and any(built(side, "compose") for side in (node.left, *node.comparators))):
                found.add(node.lineno)
            if call(node, "commutes"):
                found.update(inner.lineno for arg in node.args for inner in ast.walk(arg)
                             if built(inner, "mor"))
    return sorted(found)


def test_library_decides_commuting_diagrams_with_commutes():
    """A law or square is decided by ``Category.commutes``, which a slice
    category answers pointwise; comparing composites built by ``compose``
    would build them only to compare them, and a functor's image that is
    only compared is asked for as ``image``, which change of base follows
    without building, never as ``mor``."""
    found = []
    for path in sorted((ROOT / "src" / "descent_kit").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _built_to_compare(tree)]
    assert found == []


def _hand_grouped(tree):
    """Lines of ``for`` loops over a ``.mapping`` that call
    ``.setdefault(..., [])``, outside ``FinFunction.fibers``."""
    exempt = {id(node) for cls in tree.body
              if isinstance(cls, ast.ClassDef) and cls.name == "FinFunction"
              for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "fibers"
              for node in ast.walk(fn)}

    def groups(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setdefault" and len(node.args) == 2
                and isinstance(node.args[1], ast.List) and not node.args[1].elts)

    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.For) and id(node) not in exempt
            and isinstance(node.iter, ast.Attribute) and node.iter.attr == "mapping"
            and any(groups(inner) for inner in ast.walk(node))]


def test_library_groups_a_map_by_its_image_only_in_fibers():
    """A map is grouped by its image in one place, ``FinFunction.fibers``;
    a loop over its ``mapping`` that builds lists with ``setdefault`` is a
    second copy of that index."""
    found = []
    for path in sorted((ROOT / "src" / "descent_kit").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _hand_grouped(tree)]
    assert found == []


def _calls(node, name):
    """The calls under node of a function or method called name."""
    return [inner for inner in ast.walk(node)
            if isinstance(inner, ast.Call) and getattr(
                inner.func, "id", getattr(inner.func, "attr", None)) == name]


def test_library_lifts_and_never_matches_legs():
    """A map into a chosen pullback is built by lifting each element along
    its legs (``CartFunctor._lift``): no library module builds a leg table
    with ``match_by_legs``, and only ``basic_fibration`` calls
    ``mediating_map``, for the projections between its levels."""
    found, allowed = [], set()
    for path in sorted((ROOT / "src" / "descent_kit").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed.update(id(call) for node in tree.body if isinstance(node, ast.FunctionDef)
                       and node.name == "basic_fibration"
                       for call in _calls(node, "mediating_map"))
        found += [f"{path.name}:{call.lineno} {name}"
                  for name in ("match_by_legs", "mediating_map")
                  for call in _calls(tree, name) if id(call) not in allowed]
    assert found == []
    # the guard sees the calls that remain: the fibration's projections,
    # and the tests' leg-matching reference
    tests = ast.parse((ROOT / "tests" / "test_cosimplicial.py").read_text())
    assert allowed and _calls(tests, "match_by_legs") != []


def _hom_membership_asked(tree):
    """Lines of an ``in`` or ``not in`` whose right side is a ``.hom(...)``
    call, directly or through a name a function binds to one."""

    def hom_call(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "hom")

    found = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, ast.FunctionDef):
            continue
        bound = {target.id for node in ast.walk(scope)
                 if isinstance(node, ast.Assign) and hom_call(node.value)
                 for target in node.targets if isinstance(target, ast.Name)}
        found.update(node.lineno for node in ast.walk(scope)
                     if isinstance(node, ast.Compare)
                     for op, right in zip(node.ops, node.comparators)
                     if isinstance(op, (ast.In, ast.NotIn))
                     and (hom_call(right) or isinstance(right, ast.Name)
                          and right.id in bound))
    return sorted(found)


def test_library_never_asks_a_hom_set_for_membership():
    """A hom-set is counted or built, never asked ``in``: whether a
    morphism lies in it is decided by the category's own check where the
    morphism is made, and ``in`` on a ``HomSet`` would build it only to
    compare."""
    found = []
    for path in sorted((ROOT / "src" / "descent_kit").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}" for line in _hom_membership_asked(tree)]
    assert found == []


def test_library_never_imports_dataclasses():
    """No library module imports ``dataclasses`` or ``inspect``.  Every
    call of an entry point (the benchmark's child, the CLI) starts a fresh
    interpreter, and start-up is the largest end-to-end cost of a small
    question: ``dataclasses`` pulls in ``inspect``, and with it ``ast``,
    ``dis`` and ``tokenize``, none of which the interpreter loads by
    itself, and its decorator then runs once per class.  Value types are
    plain slotted classes and records are named tuples."""
    banned = {"dataclasses", "inspect"}
    found = []
    for path in sorted((ROOT / "src" / "descent_kit").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {module}" for module in modules
                      if module.split(".")[0] in banned]
    assert found == []


# Public names that no other library code names, each with what will
# connect it: an entry point, a ROADMAP item, or a reference the tests
# check the library against.  Anything else that nothing uses is deleted, not listed.
UNUSED_PUBLIC_NAMES = {
    "descent.classify": "entry point (ROADMAP item 8, the CLI)",
    "monadic.benabou_roubaud": "entry point (ROADMAP item 8, the CLI)",
    "bilimits.is_pseudopullback_square": "ROADMAP item 5",
    "finset.coproduct": "ROADMAP item 5",
    "fincat.validate_category": "ROADMAP item 6",
    "fincat.TableFunctor": "ROADMAP item 6",
    "monadic.is_beck_chevalley": "ROADMAP item 7",
    "monadic.chosen_pullback_bc_square": "ROADMAP item 7",
    "descent.canonicalize_datum": "the tests' reference for the datum Desc(p) keeps",
    "slices.match_by_legs": "the tests' leg-matching reference for the maps the library lifts",
}


def test_public_names_are_used_or_listed():
    """A module-level public function or class must be named somewhere in
    the library outside its own definition, or be listed above; a listed
    name that comes into use must leave the list.  ``mutations.py`` holds
    test hooks, so its own definitions are exempt."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted((ROOT / "src" / "descent_kit").glob("*.py"))}

    def names(node):
        found = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                found.add(n.id)
            elif isinstance(n, ast.ImportFrom):
                found.update(alias.name for alias in n.names)
        return found

    tops = [(module, node) for module, tree in trees.items() for node in tree.body]
    named = [names(node) for _, node in tops]
    unused = {f"{module}.{node.name}" for i, (module, node) in enumerate(tops)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and module != "mutations" and not node.name.startswith("_")
              and not any(node.name in found for j, found in enumerate(named) if j != i)}
    assert sorted(unused - UNUSED_PUBLIC_NAMES.keys()) == [], "used nowhere and not listed"
    assert sorted(UNUSED_PUBLIC_NAMES.keys() - unused) == [], "listed but now used: unlist"


# The library functions and methods that may take a parameter named
# ``bound``: the builders of bounded categories and of the entry points,
# the enumerators that walk a fragment other than their category's own,
# the one check of a bound, and ``validate_coherence``, whose bound must
# be the diagram's own (ROADMAP item 1 drops it).
BOUND_TAKERS = {
    "cosimplicial.basic_fibration", "cosimplicial.validate_coherence",
    "descent.DescCategory.__init__", "descent.classify",
    "descent.enumerate_descent_data", "fincat.checked_bound",
    "monadic.benabou_roubaud", "monadic.chosen_pullback_bc_square",
    "monadic.pullback_square_bc", "mutations.descent_category_without_cocycle",
    "mutations.descent_category_without_hom_condition",
    "slices.SliceCategory.__init__", "slices.SliceCategory.objects_constant_on",
}


def _bound_takers(node, prefix=""):
    """Qualified names of the functions and methods under node, nested ones
    included, that have a parameter named ``bound``."""
    out = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if isinstance(child, ast.FunctionDef):
                args = child.args
                if "bound" in [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]:
                    out.append(name)
            out += _bound_takers(child, name + ".")
        else:
            out += _bound_takers(child, prefix)
    return out


def test_only_builders_and_enumerators_take_a_bound():
    """A bound is fixed where a category is built: a category that
    truncates by carrier size holds it, one built from others enumerates
    over theirs, and every enumeration and decision reads the categories
    it is handed.  So only the functions listed above take a ``bound``; a
    bound on any other would be a second, per-call answer to a question
    the category already answers."""
    found = set()
    for path in sorted((ROOT / "src" / "descent_kit").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update(f"{path.stem}.{name}" for name in _bound_takers(tree))
    assert sorted(found - BOUND_TAKERS) == [], "takes a bound and is not listed"
    assert sorted(BOUND_TAKERS - found) == [], "listed but takes no bound: unlist"


def test_value_classes_have_no_instance_dict():
    """Millions of these values are built; slots keep the hash each stores
    from costing more memory than a per-instance __dict__ saved."""
    point = FinSetObj(("*",))
    fib = basic_fibration(FinFunction.of(FinSetObj(("a", "b")), point, lambda _: "*"), 2)
    desc = DescCategory(fib, 2)
    datum = desc.objects()[-1]
    values = [desc.identity(datum), datum, datum.w, datum.rho, datum.rho.fn, point]
    assert [type(v).__name__ for v in values] == [
        "DescMor", "DescentDatum", "FinFunction", "SliceMor", "FinFunction", "FinSetObj"]
    assert [type(v).__name__ for v in values if hasattr(v, "__dict__")] == []


def test_dropped_diagram_leaves_no_cyclic_garbage():
    """No functor holds a reference to itself, no cell carries an inverse
    and the hom search does not call itself through a closure, so reference
    counting alone frees a dropped diagram, its homs, a classification and
    a Benabou-Roubaud comparison; garbage left to the cyclic collector would
    keep every memo alive until it runs."""

    def build_and_drop():
        point = FinSetObj(("*",))
        p = FinFunction.of(FinSetObj(("a", "b")), point, lambda _: "*")
        fib = basic_fibration(p, 2)
        ok = validate_coherence(fib).is_empty()
        caught = not validate_coherence(invert_theta(fib)).is_empty()
        desc = DescCategory(fib, 2)
        data = desc.objects()
        n_mors = sum(len(desc.hom(x, y)) for x in data for y in data)
        return (ok, caught, len(data), n_mors, classify(p, 2).verdict,
                benabou_roubaud(p, 2).verdict)

    gc.collect()
    gc.disable()
    try:
        ok, caught, n_data, n_mors, verdict, br_verdict = build_and_drop()
        leftover = gc.collect()
    finally:
        gc.enable()
    assert ok and caught and (n_data, n_mors, verdict) == (2, 3, "Effective")
    assert br_verdict == "Equivalence"
    assert leftover == 0


def test_memo_key_values_store_their_hash():
    """Every memo lookup hashes its key; the value classes used as keys
    return a hash stored at construction instead of hashing their fields
    through a generated __hash__, and equal values still hash equal.  Each
    compares with its own __eq__ (identity, then the stored hash, then the
    fields), not a generated one that builds two field tuples."""

    def build():
        carrier = FinSetObj(tuple(["u", "v"]))
        obj = FinFunction(carrier, FinSetObj(tuple(["x", "y"])),
                          tuple([("u", "x"), ("v", "y")]))
        mor = SliceMor(obj, obj, FinFunction(carrier, FinSetObj(tuple(["u", "v"])),
                                             tuple([("u", "u"), ("v", "v")])))
        datum = DescentDatum(obj, mor)
        return obj.dom, obj, mor, datum, DescMor(datum, datum, mor)

    values, twins = build(), build()
    for value, twin in zip(values, twins):
        cls = type(value)
        assert value == twin and hash(value) == hash(twin), cls.__name__
        for method in ("__hash__", "__eq__"):
            fn = cls.__dict__.get(method)
            assert fn is not None, (cls.__name__, method)
            defined_in = pathlib.Path(fn.__code__.co_filename)
            assert defined_in == pathlib.Path(sys.modules[cls.__module__].__file__), \
                (cls.__name__, method)
        assert "_hash" in cls.__slots__ and hash(value) == value._hash, cls.__name__
    # values that differ in a field are unequal
    obj = values[1]
    other = FinFunction(obj.dom, obj.cod, tuple([("u", "y"), ("v", "x")]))
    assert obj != other and values[3] != DescentDatum(other, values[2])


@pytest.mark.parametrize("workload", ["ladder", "monadic", "glue", "audit"])
def test_benchmark_still_drives_the_library(monkeypatch, workload):
    """Every benchmark workload runs one cold round at bound 2 with every
    answer correct and no operation failed, so a change to a call shape
    the benchmark pins (``classify(p, bound, carrier_pred=...)``,
    ``benabou_roubaud(p, bound)``, ``DescCategory(fib, bound)``,
    ``validate_coherence(fib, bound)``) fails here rather than only in a
    benchmark run."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    run = importlib.import_module("run")
    tracer = tracing.Tracer()
    try:
        tracer.install()  # resolves every traced name, or raises
    finally:
        tracer.uninstall()
    res = run.run(workload, seed=1, seconds=0, trace=False, bound=2)
    assert res["correct"] is True and res["failed"] == 0
