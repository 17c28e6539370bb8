"""Instance and solution documents, plus the line-graph DOT export.

Documents are JSON: human-readable, diffable, and round-trip lossless.
An instance holds vertices, edges with stable ids, the matching classes,
and optionally a transversal; a solution holds the bags and optionally the
reduction trace.

Both emitters write exactly the bytes of ``json.dumps(doc, indent=2)`` plus
a newline, with ASCII escapes.  They assemble the text from strings that
the interpreter's C code builds, because json encodes an indented document
in pure Python, a generator frame per nested value.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Iterable, Optional

from .coloring import MatchingPartition
from .errors import KempeMinorError, ParseError, SchemaViolationError
from .graph import EdgePair, Multigraph, number_ends
from .solver import BagSystem, ReductionTrace

ParsedInstance = tuple[Multigraph, MatchingPartition, Optional[frozenset]]


def _expect_list_of_str(value: Any, path: str) -> list[str]:
    if not isinstance(value, list) or not all(map(isinstance, value, repeat(str))):
        raise SchemaViolationError(path, "expected a list of strings")
    return value


def _expect_ids(
    value: Any, path: str, what: str, known: Optional[set[str]] = None
) -> list[str]:
    """A list of distinct strings, each in the set ``known`` unless that is
    None; the first unknown or repeated entry is reported at its own path."""
    ids = _expect_list_of_str(value, path)
    if len(set(ids)) < len(ids) or (known is not None and not known.issuperset(ids)):
        # some entry fails, so the walk raises at the first one
        seen: set[str] = set()
        for j, x in enumerate(ids):
            if known is not None and x not in known:
                raise SchemaViolationError(f"{path}[{j}]", f"unknown {what} {x!r}")
            if x in seen:
                raise SchemaViolationError(f"{path}[{j}]", f"duplicate {what} {x!r}")
            seen.add(x)
    return ids


def _load(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("arrays and objects nest too deeply to parse") from None


def _accepted_edges(items: list) -> Iterable[EdgePair]:
    """The ``(id, ends)`` pairs of ``items`` when the list has an edge list's
    JSON shape: each item an object with a string ``id`` and ``ends`` a list
    of two strings; ``Multigraph`` alone decides loops, end order, repeated
    ids and unknown ends.  A shape failure raises at ``edges`` without
    naming an entry; ``parse_instance`` then walks the list to name it."""
    if all(map(isinstance, items, repeat(dict))):
        ids = list(map(dict.get, items, repeat("id")))
        ends = list(map(dict.get, items, repeat("ends")))
        if (
            all(map(isinstance, ids, repeat(str)))
            and all(map(isinstance, ends, repeat(list)))
            and set(map(len, ends)) <= {2}
            and all(map(isinstance, chain.from_iterable(ends), repeat(str)))
        ):
            return zip(ids, ends)
    raise SchemaViolationError("edges", "expected objects with an id and two ends")


def _locate_edge_fault(items: list, known: set[str]) -> None:
    """Raise at the path of the first edge of ``items`` that fails a check.
    It runs only on a list the shape pass or ``Multigraph`` refused."""
    seen: set[str] = set()
    for i, item in enumerate(items):
        path = f"edges[{i}]"
        if not isinstance(item, dict) or "id" not in item or "ends" not in item:
            raise SchemaViolationError(path, "expected an object with id and ends")
        eid = item["id"]
        if not isinstance(eid, str):
            raise SchemaViolationError(f"{path}.id", "expected a string")
        if eid in seen:
            raise SchemaViolationError(f"{path}.id", f"duplicate edge id {eid!r}")
        ends = _expect_list_of_str(item["ends"], f"{path}.ends")
        if len(ends) != 2:
            raise SchemaViolationError(f"{path}.ends", "expected exactly two endpoints")
        if not known.issuperset(ends):  # report the first unknown end
            _expect_ids(ends, f"{path}.ends", "vertex id", known)
        if ends[0] == ends[1]:
            raise SchemaViolationError(path, f"edge {eid!r} would be a loop at {ends[0]!r}")
        seen.add(eid)


def parse_instance(text: str) -> ParsedInstance:
    """Each list in the document is accepted by checks over the whole list;
    its entries are walked one by one only when a check fails, to report
    the first failing entry at its own path.  For the edge list these are
    the shape pass and ``Multigraph``, which alone decides loops, end order,
    repeated ids and unknown ends; a refusal by either sends the list to
    the walk, which names the first failing entry in document order."""
    doc = _load(text)
    if not isinstance(doc, dict):
        raise SchemaViolationError("$", "instance document must be an object")
    for key in ("vertices", "edges", "classes"):
        if key not in doc:
            raise SchemaViolationError(key, "missing required field")
    vertices = _expect_ids(doc["vertices"], "vertices", "vertex id")
    if not isinstance(doc["edges"], list):
        raise SchemaViolationError("edges", "expected a list")
    try:
        H = Multigraph(vertices, _accepted_edges(doc["edges"]))
    except KempeMinorError:
        _locate_edge_fault(doc["edges"], set(vertices))
        raise
    if not isinstance(doc["classes"], list):
        raise SchemaViolationError("classes", "expected a list")
    edge_ids = set(H.edge_ids)
    part = MatchingPartition.of(
        _expect_ids(cls, f"classes[{i}]", "edge id", edge_ids)
        for i, cls in enumerate(doc["classes"])
    )
    transversal: Optional[frozenset] = None
    if doc.get("transversal") is not None:
        transversal = frozenset(
            _expect_ids(doc["transversal"], "transversal", "edge id", edge_ids)
        )
    return H, part, transversal


# One edge object of an instance document, nested in its "edges" list as
# json.dumps(indent=2) nests it; the slots take the encoded id and ends.
_EDGE = '{\n      "id": %s,\n      "ends": [\n        %s,\n        %s\n      ]\n    }'


def _listing(items: Iterable[str], indent: str) -> str:
    """The encoded JSON values ``items`` as a list closing at ``indent``, laid
    out as ``json.dumps(indent=2)`` lays it out, and ``[]`` when empty (no
    encoded value is empty, so an empty join means no items)."""
    inner = indent + "  "
    text = f",\n{inner}".join(items)
    return f"[\n{inner}{text}\n{indent}]" if text else "[]"


def emit_instance(
    H: Multigraph, part: MatchingPartition, transversal=None
) -> str:
    """Each vertex id is encoded once, for the vertex list and every end,
    and each edge fills one ``_EDGE``."""
    vertices = list(map(_quote, H.vertices))
    ids = H.edge_ids
    ends = list(map(vertices.__getitem__, chain.from_iterable(number_ends(H, ids))))
    edges = map(_EDGE.__mod__, zip(map(_quote, ids), ends[0::2], ends[1::2]))
    fields = [
        f'"vertices": {_listing(vertices, "  ")}',
        f'"edges": {_listing(edges, "  ")}',
        '"classes": '
        + _listing((_listing(map(_quote, sorted(c)), "    ") for c in part.classes), "  "),
    ]
    if transversal is not None:
        fields.append(f'"transversal": {_listing(map(_quote, sorted(transversal)), "  ")}')
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


def parse_solution(text: str) -> BagSystem:
    doc = _load(text)
    if not isinstance(doc, dict):
        raise SchemaViolationError("$", "solution document must be an object")
    if "bags" not in doc:
        raise SchemaViolationError("bags", "missing required field")
    if not isinstance(doc["bags"], list):
        raise SchemaViolationError("bags", "expected a list")
    return BagSystem.of(
        _expect_ids(bag, f"bags[{i}]", "edge id") for i, bag in enumerate(doc["bags"])
    )


def emit_solution(bags: BagSystem, trace: Optional[ReductionTrace] = None) -> str:
    fields = [
        '"bags": '
        + _listing((_listing(map(_quote, sorted(b)), "    ") for b in bags.bags), "  ")
    ]
    if trace is not None:
        steps = [{"kind": step.kind, "details": step.details} for step in trace.steps]
        # sets are the only trace values JSON lacks; they are written sorted.
        # An encoded string holds no raw newline, so two spaces after each
        # newline nest the list one level down, as json.dumps(doc) would.
        text = json.dumps(steps, indent=2, default=sorted)
        fields.append('"trace": ' + text.replace("\n", "\n  "))
    return "{\n  " + ",\n  ".join(fields) + "\n}\n"


# ---------------------------------------------------------------------------
# DOT export


def _dot_id(eid: str) -> str:
    """eid as a DOT quoted string, with backslashes and quotes escaped."""
    return '"' + eid.replace("\\", "\\\\").replace('"', '\\"') + '"'


def line_graph_to_dot(H: Multigraph) -> str:
    """The line graph of H in DOT: one node per edge id, and one line per
    pair a < b of edges sharing an end, grouped by a and sorted by b."""
    lines = ["graph L {", "  node [shape=box];"]
    lines += [f"  {_dot_id(eid)};" for eid in H.edge_ids]
    for e in H.edges():
        later = {f for v in e.ends for f in H.edges_at(v) if f > e.id}
        lines += [f"  {_dot_id(e.id)} -- {_dot_id(f)};" for f in sorted(later)]
    lines.append("}")
    return "\n".join(lines) + "\n"
