"""parse_instance as it was before its lists were accepted by whole-list
checks: the tests' reference parser.

The package's parser accepts each list of a document by checks over the
whole list and walks it entry by entry only to locate a failure; this is
the parser it replaced, which walked every entry of every document.  It is
kept so the tests can compare whole outcomes, the parsed instance or the
error's type, path and message, on the same documents.
"""

import json
from typing import Any, Optional

from kempe_minors.coloring import MatchingPartition
from kempe_minors.errors import ParseError, SchemaViolationError
from kempe_minors.graph import Multigraph


def _expect_list_of_str(value: Any, path: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SchemaViolationError(path, "expected a list of strings")
    return value


def _expect_ids(value: Any, path: str, what: str, known: Any = None) -> list[str]:
    """A list of distinct strings, each in ``known`` unless that is None;
    the first unknown or repeated entry is reported at its own path."""
    ids = _expect_list_of_str(value, path)
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


def reference_parse_instance(text: str):
    doc = _load(text)
    if not isinstance(doc, dict):
        raise SchemaViolationError("$", "instance document must be an object")
    for key in ("vertices", "edges", "classes"):
        if key not in doc:
            raise SchemaViolationError(key, "missing required field")
    vertices = _expect_ids(doc["vertices"], "vertices", "vertex id")
    if not isinstance(doc["edges"], list):
        raise SchemaViolationError("edges", "expected a list")
    known = set(vertices)
    records: dict[str, tuple[str, str]] = {}
    for i, item in enumerate(doc["edges"]):
        path = f"edges[{i}]"
        if not isinstance(item, dict) or "id" not in item or "ends" not in item:
            raise SchemaViolationError(path, "expected an object with id and ends")
        eid = item["id"]
        if not isinstance(eid, str):
            raise SchemaViolationError(f"{path}.id", "expected a string")
        if eid in records:
            raise SchemaViolationError(f"{path}.id", f"duplicate edge id {eid!r}")
        ends = _expect_list_of_str(item["ends"], f"{path}.ends")
        if len(ends) != 2:
            raise SchemaViolationError(f"{path}.ends", "expected exactly two endpoints")
        if not known.issuperset(ends):  # report the first unknown end
            _expect_ids(ends, f"{path}.ends", "vertex id", known)
        if ends[0] == ends[1]:
            raise SchemaViolationError(
                path, f"edge {eid!r} would be a loop at {ends[0]!r}"
            )
        records[eid] = (ends[0], ends[1])
    H = Multigraph(vertices, records.items())
    if not isinstance(doc["classes"], list):
        raise SchemaViolationError("classes", "expected a list")
    part = MatchingPartition.of(
        _expect_ids(cls, f"classes[{i}]", "edge id", H)
        for i, cls in enumerate(doc["classes"])
    )
    transversal: Optional[frozenset] = None
    if doc.get("transversal") is not None:
        transversal = frozenset(
            _expect_ids(doc["transversal"], "transversal", "edge id", H)
        )
    return H, part, transversal
