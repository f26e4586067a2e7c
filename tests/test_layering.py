"""Import layering of the library: the production modules do not depend on
the oracle lab, and the oracle lab does not depend on the isomorphism and
well-pointedness code whose results it is used to check.  Also: every method
a functor must implement has a caller outside ``functors.py``, directly or
through the ``FunctorSpec`` methods derived from it, only
``core`` and ``reachability`` build coalgebras without validating them, and
every library name the benchmark scripts in ``perfbench/`` use exists."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "coalgmin"
PERFBENCH = SRC.parent.parent / "perfbench"

PRODUCTION = ("core", "errors", "functors", "formats", "quotient", "reachability", "wellpointed")
ORACLE_LAB = ("oracles", "suites", "systems")


def imported_modules(name: str) -> set[str]:
    """The ``coalgmin`` modules that ``<name>.py`` imports anywhere, including
    inside functions."""
    dotted = []
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = "coalgmin" + (f".{node.module}" if node.module else "")
            else:
                base = node.module or ""
            dotted += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return {d.split(".")[1] for d in dotted if d.startswith("coalgmin.")}


def test_the_layered_modules_exist():
    assert {p.stem for p in SRC.glob("*.py")} >= set(PRODUCTION) | set(ORACLE_LAB)


@pytest.mark.parametrize("name", PRODUCTION)
def test_production_modules_do_not_import_the_oracle_lab(name):
    assert not imported_modules(name) & set(ORACLE_LAB)


def test_the_oracles_do_not_import_wellpointed():
    assert "wellpointed" not in imported_modules("oracles")


def functor_spec_methods() -> list[ast.FunctionDef]:
    tree = ast.parse((SRC / "functors.py").read_text())
    spec = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FunctorSpec")
    return [method for method in spec.body if isinstance(method, ast.FunctionDef)]


def abstract_functor_methods() -> set[str]:
    """The methods whose body in ``FunctorSpec`` raises NotImplementedError."""
    return {
        method.name
        for method in functor_spec_methods()
        if any(
            isinstance(node, ast.Raise)
            and node.exc is not None  # a bare re-raise names no exception
            and "NotImplementedError" in ast.unparse(node.exc)
            for node in ast.walk(method)
        )
    }


def called_attributes(tree: ast.AST, receiver: str | None = None) -> set[str]:
    """The attribute names called in ``tree``, as in ``x.name(...)``; with
    a ``receiver``, only those called on that name."""
    return {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and (
            receiver is None
            or isinstance(node.func.value, ast.Name) and node.func.value.id == receiver
        )
    }


def test_every_abstract_functor_method_is_called_outside_functors():
    called = set()
    for path in SRC.glob("*.py"):
        if path.name != "functors.py":
            called |= called_attributes(ast.parse(path.read_text()))
    # A hook also counts as called when a FunctorSpec method that calls it
    # on self is called, directly or through such methods again.
    calls_on_self = {m.name: called_attributes(m, "self") for m in functor_spec_methods()}
    pending = list(called & calls_on_self.keys())
    while pending:
        new = calls_on_self[pending.pop()] - called
        called |= new
        pending += new & calls_on_self.keys()
    abstract = abstract_functor_methods()
    assert "fmap" in abstract
    assert abstract - called == set()


def test_only_core_and_reachability_build_unchecked_coalgebras():
    # core._derived and core._derived_morphism skip validation; only
    # constructions that keep validity use them
    def users(call):
        return {path.stem for path in SRC.glob("*.py") if call in path.read_text()}

    assert users("_derived(") == {"core", "reachability"}
    assert users("_derived_morphism(") == {"core", "reachability", "oracles"}


def perfbench_names() -> set[tuple[str, str]]:
    """The (module, name) pairs that ``perfbench/*.py`` take from coalgmin:
    each ``coalgmin.<name>`` attribute and each ``from coalgmin... import``
    name."""
    names = set()
    for path in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "coalgmin"
            ):
                names.add(("coalgmin", node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "coalgmin":
                names |= {(node.module, alias.name) for alias in node.names}
    return names


def test_every_name_perfbench_uses_resolves():
    # the scripts are only read: several of them no test runs
    names = perfbench_names()
    assert {("coalgmin", "behavioural_classes"), ("coalgmin.cli", "run_command")} <= names
    missing = {(m, n) for m, n in names if not hasattr(importlib.import_module(m), n)}
    assert missing == set()
