"""JSON documents for coalgebras, morphisms and partitions, plus DOT output.

Serialization is canonical: object keys are sorted, weights are normalized
fraction strings ("3", "-1/2"), state lists inside structures follow carrier
order, and every writer is deterministic byte for byte.  Each document is
written exactly as ``json.dumps(payload, sort_keys=True, indent=2,
ensure_ascii=True)`` and a newline would write its payload, but straight
from its structures through ``json_container``: ``serialize_coalgebra``
quotes every state id once and writes the top level, and each state's
structure is written by its functor's ``write``.  Payloads that are not
documents, a functor descriptor and the ``homs`` listing, go through that
``json.dumps`` call itself (``canonical_json``).

``parse_coalgebra`` reads in one pass: each state's payload is decoded and
checked by its functor's ``read``, and ``core.admit_coalgebra`` checks the
carrier rules as set operations.  A document that passes is built without
validating it again; any other goes through the
:class:`coalgmin.core.Coalgebra` constructor, which reports every violation
at once.  Later operations on the parsed coalgebra do not validate it again.
Every document reader rejects a JSON object that repeats a key, and a key
that it does not read: a document, a morphism, a partition, a functor
descriptor (its ``kind`` and fields) and a DFA state each name their keys.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quoted

from .core import Coalgebra, Morphism, Partition, admit_coalgebra
from .errors import ParseError
from .functors import KINDS, FunctorSpec, json_container, known_keys, string_list


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def parse_functor(payload) -> FunctorSpec:
    """The functor a descriptor names, looked up by ``kind`` in
    :data:`coalgmin.functors.KINDS`."""
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ParseError(None, "functor must be an object with a 'kind'")
    kind = payload["kind"]
    cls = KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(None, f"unknown functor kind {kind!r}; expected one of {tuple(KINDS)}")
    try:
        return cls.from_payload(payload)
    except ValueError as exc:
        raise ParseError(None, f"bad {kind} functor: {exc}") from None


# ---------------------------------------------------------------------------
# Coalgebra documents
# ---------------------------------------------------------------------------


def serialize_coalgebra(c: Coalgebra) -> str:
    spec, states, structure = c.functor, c.states, c.structure
    index = c.state_index()
    quoted = dict(zip(states, map(_quoted, states)))
    functor = json.dumps(spec.payload(), sort_keys=True, indent=2, ensure_ascii=True)
    fields = ['"functor": ' + functor.replace("\n", "\n  ")]
    if c.point is not None:
        fields.append('"point": ' + quoted[c.point])
    fields.append('"states": ' + json_container("[", list(quoted.values()), "]", "\n  "))
    structures = [quoted[s] + ": " + spec.write(structure[s], index, quoted, "\n    ")
                  for s in sorted(states)]
    fields.append('"structure": ' + json_container("{", structures, "}", "\n  "))
    return json_container("{", fields, "}", "\n") + "\n"


def parse_coalgebra(text: str) -> Coalgebra:
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise ParseError(None, "document must be a JSON object")
    known_keys(doc, ("functor", "states", "structure", "point"), "document")
    spec = parse_functor(doc.get("functor"))
    states = tuple(string_list(doc.get("states"), "states"))
    structure_doc = doc.get("structure")
    if not isinstance(structure_doc, dict):
        raise ParseError(None, "'structure' must be an object")
    carrier = set(states)
    structure = {}
    admitted = True
    for s, payload in structure_doc.items():
        structure[s], ok = spec.read(payload, s, carrier)
        admitted = admitted and ok
    point = doc.get("point")
    if point is not None and not isinstance(point, str):
        raise ParseError(None, "'point' must be a string")
    return admit_coalgebra(spec, states, carrier, structure, point, admitted)


def _unique_keys(pairs: list) -> dict:
    """The JSON object of ``pairs``; a repeated key is a ParseError, not
    the last of its values."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(None, f"duplicate key {key!r}")
            seen.add(key)
    return doc


def _loads(text: str):
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
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


def serialize_morphism(h: Morphism) -> str:
    pairs = [_quoted(s) + ": " + _quoted(t) for s, t in sorted(h.mapping.items())]
    return '{\n  "map": ' + json_container("{", pairs, "}", "\n  ") + "\n}\n"


def parse_morphism(text: str, dom: Coalgebra, cod: Coalgebra) -> Morphism:
    doc = _loads(text)
    mapping = doc.get("map") if isinstance(doc, dict) else None
    if not isinstance(mapping, dict) or not all(isinstance(v, str) for v in mapping.values()):
        raise ParseError(None, "morphism document must be an object with a 'map' of strings")
    known_keys(doc, ("map",), "morphism document")
    return Morphism(dom, cod, mapping)


def serialize_partition(p: Partition) -> str:
    blocks = [json_container("[", [*map(_quoted, b)], "]", "\n    ") for b in p.blocks]
    return '{\n  "blocks": ' + json_container("[", blocks, "]", "\n  ") + "\n}\n"


def parse_partition(text: str) -> Partition:
    doc = _loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("blocks"), list):
        raise ParseError(None, "partition document must be an object with 'blocks'")
    known_keys(doc, ("blocks",), "partition document")
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
        lines.append(f"  {_quote(s)} [shape={spec.node_shape(c.structure[s])}];")
    if point is not None:
        lines.append(f"  {_quote(start)} -> {_quote(point)};")
    for s in c.states:
        for label, target, weight in spec._ordered(spec.split(c.structure[s])[1], index):
            if spec.weight_labels:
                label = weight
            suffix = f" [label={_quote(str(label))}]" if label is not None else ""
            lines.append(f"  {_quote(s)} -> {_quote(target)}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
