"""Command-line interface.

Exit codes: 0 for success or a true property, 1 for a false property (a
failed homomorphism check, a missing isomorphism, disagreeing minimization
orders, a failing suite), 2 for bad arguments and for input or validation
errors, including files that cannot be read or written; exit 2 prints one
``error:`` line.  All file output is canonical JSON, byte-identical across
runs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import sys
from pathlib import Path

from .core import apply_partition_quotient, factorize, hom_failures, underlying
from .errors import CoalgminError, NotPointed, ParseError
from .formats import (
    emit_dot,
    parse_coalgebra,
    parse_morphism,
    parse_partition,
    serialize_coalgebra,
    serialize_morphism,
    serialize_partition,
    canonical_json,
)
from .oracles import enumerate_homomorphisms
from .quotient import simple_quotient
from .reachability import reachable_part
from .suites import DEFAULT_SEEDS, SUITES, run_suite
from .wellpointed import are_isomorphic, commutation_check, tree_unravel, well_pointed_modification


def _load(path: str, pointed: bool | None = None):
    """Read a coalgebra document; coerce its pointedness when requested.

    pointed=True demands a point; pointed=False strips one; None keeps the
    document as written.
    """
    c = parse_coalgebra(_read(path))
    if pointed is True:
        if c.point is None:
            raise NotPointed(f"{path}: document has no point, and this command needs one")
        return c
    if pointed is False:
        return underlying(c)
    return c


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(None, f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _write(out_dir: str, name: str, text: str) -> None:
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_text(text)


def _cmd_validate(args) -> int:
    _load(args.file)
    print("ok")
    return 0


def _load_morphism(args):
    """The homomorphism candidate of check-hom and factorize: --map from --dom to --cod."""
    dom = _load(args.dom, pointed=args.pointed)
    cod = _load(args.cod, pointed=args.pointed)
    return parse_morphism(_read(args.map), dom, cod)


def _cmd_check_hom(args) -> int:
    failures = hom_failures(_load_morphism(args))
    if failures:
        print("not a homomorphism; counterexamples: " + " ".join(failures))
        return 1
    print("ok")
    return 0


def _cmd_factorize(args) -> int:
    factorization = factorize(_load_morphism(args))
    _write(args.out_dir, "e.json", serialize_morphism(factorization.e))
    _write(args.out_dir, "image.json", serialize_coalgebra(factorization.image))
    _write(args.out_dir, "m.json", serialize_morphism(factorization.m))
    return 0


def _cmd_reach(args) -> int:
    c = _load(args.file, pointed=True)
    part, inclusion = reachable_part(c)
    _write(args.out_dir, "reachable.json", serialize_coalgebra(part))
    _write(args.out_dir, "embedding.json", serialize_morphism(inclusion))
    return 0


def _cmd_minimize(args) -> int:
    c = _load(args.file)
    quotient, projection, partition = simple_quotient(c)
    _write(args.out_dir, "quotient.json", serialize_coalgebra(quotient))
    _write(args.out_dir, "projection.json", serialize_morphism(projection))
    _write(args.out_dir, "partition.json", serialize_partition(partition))
    return 0


def _cmd_quotient(args) -> int:
    c = _load(args.file)
    p = parse_partition(_read(args.partition))
    quotient, projection = apply_partition_quotient(c, p)
    _write(args.out_dir, "quotient.json", serialize_coalgebra(quotient))
    _write(args.out_dir, "projection.json", serialize_morphism(projection))
    return 0


def _cmd_wellpoint(args) -> int:
    c = _load(args.file, pointed=True)
    if args.order == "simple-first":
        simple_first = well_pointed_modification(c)
        _write(args.out_dir, "wellpoint-simple-first.json", serialize_coalgebra(simple_first))
        return 0
    report = commutation_check(c)
    if args.order == "both":
        _write(args.out_dir, "wellpoint-simple-first.json", serialize_coalgebra(report.simple_first))
    _write(args.out_dir, "wellpoint-reach-first.json", serialize_coalgebra(report.reach_first))
    if args.order == "reach-first":
        return 0
    print(f"agree: {'true' if report.agree else 'false'}")
    return 0 if report.agree else 1


def _cmd_iso(args) -> int:
    a = _load(args.a, pointed=args.pointed)
    b = _load(args.b, pointed=args.pointed)
    iso = are_isomorphic(a, b)
    if iso is None:
        print("no isomorphism", file=sys.stderr)
        return 1
    sys.stdout.write(serialize_morphism(iso))
    return 0


def _cmd_homs(args) -> int:
    a = _load(args.a, pointed=args.pointed)
    b = _load(args.b, pointed=args.pointed)
    if args.max is not None and args.max < 0:
        raise CoalgminError(f"--max must be nonnegative, got {args.max}")
    homs = enumerate_homomorphisms(a, b)
    listed = [dict(h.mapping) for h in itertools.islice(homs, args.max)]
    count = len(listed) + sum(1 for _ in homs)  # the rest are counted, not kept
    sys.stdout.write(canonical_json({"count": count, "maps": listed}))
    return 0


def _cmd_unravel(args) -> int:
    c = _load(args.file, pointed=True)
    tree, covering = tree_unravel(c)
    _write(args.out_dir, "tree.json", serialize_coalgebra(tree))
    _write(args.out_dir, "covering.json", serialize_morphism(covering))
    return 0


def _cmd_dot(args) -> int:
    c = _load(args.file)
    sys.stdout.write(emit_dot(c))
    return 0


def _cmd_props(args) -> int:
    if args.seeds is not None and args.seeds < 1:
        raise CoalgminError(f"--seeds must be positive, got {args.seeds}")
    seeds = DEFAULT_SEEDS if args.seeds is None else tuple(range(args.seeds))
    reports = run_suite(args.suite, seeds)
    ok = True
    for report in reports:
        print(report.line())
        ok = ok and report.passed
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Reports a bad argv as a CoalgminError, so it gets the one error line."""

    def error(self, message):
        raise CoalgminError(f"{self.prog}: {message}")


def _arg(*flags, **options) -> argparse.ArgumentParser:
    """A parent parser holding one argument, to list in a command's row."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **options)
    return parent


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared afterwards: building
    it costs far more than a parse, and parsing leaves it unchanged."""
    parser = _Parser(
        prog="coalgmin",
        description="Minimize finite coalgebraic state systems and verify their laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    file, out_dir = _arg("file"), _arg("--out-dir", default=".")
    pointed = _arg("--pointed", action="store_true")
    morphism = [_arg(flag, required=True) for flag in ("--dom", "--cod", "--map")]
    pair = [_arg("a"), _arg("b")]
    orders = ("simple-first", "reach-first", "both")
    commands = (
        ("validate", _cmd_validate, "validate a coalgebra document", [file]),
        ("check-hom", _cmd_check_hom, "check the homomorphism law for a map", [*morphism, pointed]),
        ("factorize", _cmd_factorize, "split a homomorphism through its image",
         [*morphism, pointed, out_dir]),
        ("reach", _cmd_reach, "compute the reachable part", [file, out_dir]),
        ("minimize", _cmd_minimize, "compute the simple quotient", [file, out_dir]),
        ("quotient", _cmd_quotient, "quotient by an explicit partition",
         [file, _arg("--partition", required=True), out_dir]),
        ("wellpoint", _cmd_wellpoint, "minimize under both aspects",
         [file, _arg("--order", choices=orders, default="simple-first"), out_dir]),
        ("iso", _cmd_iso, "search for an isomorphism between two systems", [*pair, pointed]),
        ("homs", _cmd_homs, "enumerate all homomorphisms between two systems",
         [*pair, pointed, _arg("--max", type=int, default=None)]),
        ("unravel", _cmd_unravel, "tree-unravel an acyclic reachable part", [file, out_dir]),
        ("dot", _cmd_dot, "emit Graphviz DOT text", [file]),
        ("props", _cmd_props, "run a seeded property suite", [
            _arg("--suite", default="all", help=f"one of {sorted(SUITES)} or 'all'"),
            _arg("--seeds", type=int, default=None, help="number of seeds (default 200)"),
        ]),
    )
    for name, fn, summary, parents in commands:
        sub.add_parser(name, help=summary, parents=parents).set_defaults(fn=fn)
    return parser


def run_command(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (CoalgminError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
