"""Import layering of the library: the production modules do not depend on
the oracle lab, and the oracle lab does not depend on the isomorphism and
well-pointedness code whose results it is used to check.  Also: every method
a functor must implement has a caller outside ``functors.py``, directly or
through the ``FunctorSpec`` methods derived from it, only
``core`` and ``reachability`` build coalgebras without validating them,
every library name the benchmark scripts in ``perfbench/`` use exists, and
the production commands run without loading the oracle lab or the
well-pointedness code, and no command loads ``dataclasses`` or ``inspect``."""

import ast
import importlib
import json
import subprocess
import sys
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


# Run in a fresh interpreter: the test session has long since imported everything.
RUN_COMMANDS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from coalgmin.cli import run_command
for argv in json.loads(sys.argv[2]):
    assert run_command(argv) == 0, argv
print(" ".join(sorted(sys.modules)))
"""

CORPUS = SRC.parent.parent / "corpus"

# the standard modules the value classes would load if they were dataclasses
DATACLASS_IMPORTS = {"dataclasses", "inspect"}


def modules_loaded_by(*commands: list[str]) -> set[str]:
    """The modules a fresh interpreter holds after running each of
    ``commands`` through ``run_command``, which must exit 0."""
    run = subprocess.run(
        [sys.executable, "-c", RUN_COMMANDS, str(SRC.parent), json.dumps(commands)],
        capture_output=True, text=True, check=True,
    )
    return set(run.stdout.splitlines()[-1].split())  # after the commands' own output


def test_the_production_commands_load_neither_the_oracle_lab_nor_wellpointed(tmp_path):
    out = str(tmp_path)
    loaded = modules_loaded_by(
        ["validate", f"{CORPUS}/weighted_flow.json"],
        ["reach", f"{CORPUS}/labelled_handshake.json", "--out-dir", out],
        ["minimize", f"{CORPUS}/dfa_no_trailing_b.json", "--out-dir", out],
        ["minimize", f"{CORPUS}/weighted_flow.json", "--out-dir", out],
        ["dot", f"{CORPUS}/ts_branching.json"],
    )
    assert {"coalgmin.cli", "coalgmin.quotient", "coalgmin.reachability"} <= loaded
    unwanted = {f"coalgmin.{name}" for name in (*ORACLE_LAB, "wellpointed")} | {"hashlib"}
    assert loaded & (unwanted | DATACLASS_IMPORTS) == set()


def test_the_oracle_lab_and_wellpointed_commands_load_no_dataclasses(tmp_path):
    loaded = modules_loaded_by(
        ["wellpoint", f"{CORPUS}/ts_cycle_with_feeder.json", "--order", "both",
         "--out-dir", str(tmp_path)],
        ["iso", f"{CORPUS}/ts_two_cycle.json", f"{CORPUS}/ts_two_cycle.json"],
        ["homs", f"{CORPUS}/ts_branching.json", f"{CORPUS}/ts_branching_reduced.json"],
        ["props", "--suite", "all", "--seeds", "2"],
    )
    assert {"coalgmin.oracles", "coalgmin.suites", "coalgmin.wellpointed"} <= loaded
    assert loaded & DATACLASS_IMPORTS == set()


def test_every_public_name_resolves_to_its_defining_module():
    import coalgmin

    for name in coalgmin.__all__:
        home = importlib.import_module(f"coalgmin.{coalgmin._HOME[name]}")
        assert getattr(coalgmin, name) is getattr(home, name)
    assert set(coalgmin.__all__) <= set(dir(coalgmin))
    star = {}
    exec("from coalgmin import *", star)
    assert set(star) - {"__builtins__"} == set(coalgmin.__all__)
    with pytest.raises(AttributeError, match="^module 'coalgmin' has no attribute 'no_such_name'$"):
        coalgmin.no_such_name
