"""JSON documents for coalgebras, morphisms and partitions, plus DOT output.

Serialization is canonical: object keys are sorted, weights are normalized
fraction strings ("3", "-1/2"), state lists inside structures follow carrier
order, and every emitter is deterministic byte for byte.  ``canonical_json``
writes exactly the bytes of ``json.dumps(payload, sort_keys=True, indent=2,
ensure_ascii=True)`` and a newline, but joins them itself: given an
``indent``, CPython skips its C encoder and yields the output token by token
from the pure-Python one.  ``parse_coalgebra`` validates by building the
:class:`coalgmin.core.Coalgebra`, whose constructor reports every violation
at once; later operations on the parsed coalgebra do not validate it again.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quoted

from .core import Coalgebra, Morphism, Partition
from .errors import ParseError
from .functors import FunctorSpec, string_list


def canonical_json(payload) -> str:
    return _emit(payload, "\n") + "\n"


def _emit(v, newline: str) -> str:
    """``v`` as that ``json.dumps`` call writes it, breaking lines with ``newline``.
    Payloads nest five containers deep; deeper ones go to ``json.dumps``."""
    t = type(v)
    if t is str:
        return _quoted(v)
    if t is bool:
        return "true" if v else "false"
    if v is None:
        return "null"
    if t is int:
        return int.__repr__(v)
    if len(newline) < 11 and (t is list or t is dict and {*map(type, v)} <= {str}):
        if not v:
            return "[]" if t is list else "{}"
        inner = newline + "  "
        if t is list:
            items = [_quoted(x) if type(x) is str else _emit(x, inner) for x in v]
            return "[" + inner + ("," + inner).join(items) + newline + "]"
        items = [_quoted(k) + ": " + (_quoted(x) if type(x) is str else _emit(x, inner))
                 for k, x in sorted(v.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return json.dumps(v, sort_keys=True, indent=2, ensure_ascii=True).replace("\n", newline)


def parse_functor(payload) -> FunctorSpec:
    """The functor a descriptor names, looked up by ``kind`` among the
    direct subclasses of :class:`FunctorSpec`."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ParseError(None, "functor must be an object with a 'kind'")
    classes = FunctorSpec.__subclasses__()
    for cls in classes:
        if cls.kind == payload["kind"]:
            try:
                return cls.from_payload(payload)
            except ValueError as exc:
                raise ParseError(None, f"bad {cls.kind} functor: {exc}") from None
    kinds = tuple(cls.kind for cls in classes)
    raise ParseError(None, f"unknown functor kind {payload['kind']!r}; expected one of {kinds}")


# ---------------------------------------------------------------------------
# Coalgebra documents
# ---------------------------------------------------------------------------


def coalgebra_payload(c: Coalgebra) -> dict:
    index = c.state_index()
    doc = {
        "functor": c.functor.payload(),
        "states": list(c.states),
        "structure": {
            s: c.functor.encode(c.struct_of(s), index) for s in c.states
        },
    }
    if c.point is not None:
        doc["point"] = c.point
    return doc


def serialize_coalgebra(c: Coalgebra) -> str:
    return canonical_json(coalgebra_payload(c))


def parse_coalgebra(text: str) -> Coalgebra:
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise ParseError(None, "document must be a JSON object")
    spec = parse_functor(doc.get("functor"))
    states = tuple(string_list(doc.get("states"), "states"))
    structure_doc = doc.get("structure")
    if not isinstance(structure_doc, dict):
        raise ParseError(None, "'structure' must be an object")
    structure = {s: spec.decode(payload, s) for s, payload in structure_doc.items()}
    point = doc.get("point")
    if point is not None and not isinstance(point, str):
        raise ParseError(None, "'point' must be a string")
    return Coalgebra(spec, states, structure, point)


def _loads(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.lineno, exc.msg) from None
    except (RecursionError, ValueError) as exc:  # deep nesting, or too many digits
        raise ParseError(None, str(exc)) from None
    # A lone UTF-16 surrogate is not a character: no output can encode it.  It
    # can only enter through a \u escape or a raw non-ASCII character.
    if "\\u" in text or not text.isascii():
        try:
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            surrogate = exc.object[exc.start : exc.end]
            raise ParseError(None, f"{surrogate!r} is a lone UTF-16 surrogate") from None
    return doc


# ---------------------------------------------------------------------------
# Morphism and partition documents
# ---------------------------------------------------------------------------


def morphism_payload(h: Morphism) -> dict:
    return {"map": dict(sorted(h.mapping.items()))}


def serialize_morphism(h: Morphism) -> str:
    return canonical_json(morphism_payload(h))


def parse_morphism(text: str, dom: Coalgebra, cod: Coalgebra) -> Morphism:
    doc = _loads(text)
    mapping = doc.get("map") if isinstance(doc, dict) else None
    if not isinstance(mapping, dict) or not all(isinstance(v, str) for v in mapping.values()):
        raise ParseError(None, "morphism document must be an object with a 'map' of strings")
    return Morphism(dom, cod, {s: mapping[s] for s in dom.states if s in mapping})


def partition_payload(p: Partition) -> dict:
    return {"blocks": [list(b) for b in p.blocks]}


def serialize_partition(p: Partition) -> str:
    return canonical_json(partition_payload(p))


def parse_partition(text: str) -> Partition:
    doc = _loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("blocks"), list):
        raise ParseError(None, "partition document must be an object with 'blocks'")
    return Partition.of(string_list(b, "each partition block") for b in doc["blocks"])


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(c: Coalgebra) -> str:
    """Render the system as Graphviz DOT text, deterministically.

    Nodes appear in carrier order, shaped by the functor (accepting DFA
    states are double circles);
    the point is marked by an arrow from an invisible node; weighted and
    labelled edges carry labels.
    """
    spec = c.functor
    index = c.state_index()
    lines = ["digraph coalgebra {", "  rankdir=LR;"]
    point = c.point
    if point is not None:
        start = "__point"
        while start in index:
            start += "_"
        lines.append(f"  {_quote(start)} [shape=none, label=\"\", width=0, height=0];")
    for s in c.states:
        lines.append(f"  {_quote(s)} [shape={spec.node_shape(c.struct_of(s))}];")
    if point is not None:
        lines.append(f"  {_quote(start)} -> {_quote(point)};")
    for s in c.states:
        for label, target in spec.edges(c.struct_of(s), index):
            suffix = f" [label={_quote(str(label))}]" if label is not None else ""
            lines.append(f"  {_quote(s)} -> {_quote(target)}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
