"""emit_instance and emit_solution as they were before the documents were
assembled from strings: the tests' reference emitters.

The package's emitters build the text of a document from strings that the
interpreter's C code encodes; these are the emitters they replaced, which
hand the whole document to ``json.dumps(doc, indent=2)``.  They are kept
so the tests can compare the emitted bytes on the same inputs.
"""

import json
from typing import Any, Optional

from kempe_minors.coloring import MatchingPartition
from kempe_minors.graph import Multigraph
from kempe_minors.solver import BagSystem, ReductionTrace


def reference_emit_instance(
    H: Multigraph, part: MatchingPartition, transversal=None
) -> str:
    doc: dict[str, Any] = {
        "vertices": list(H.vertices),
        "edges": [{"id": e.id, "ends": list(e.ends)} for e in H.edges()],
        "classes": [sorted(cls) for cls in part.classes],
    }
    if transversal is not None:
        doc["transversal"] = sorted(transversal)
    return json.dumps(doc, indent=2) + "\n"


def reference_emit_solution(
    bags: BagSystem, trace: Optional[ReductionTrace] = None
) -> str:
    doc: dict[str, Any] = {"bags": [sorted(bag) for bag in bags.bags]}
    if trace is not None:
        doc["trace"] = [
            {"kind": step.kind, "details": step.details} for step in trace.steps
        ]
    # sets are the only trace values JSON lacks; they are written sorted
    return json.dumps(doc, indent=2, default=sorted) + "\n"
