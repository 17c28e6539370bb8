"""One fault per runtime check of the solver, and a gate that keeps it so.

Every ``_require`` in ``solver.py`` states a lemma of the construction.  A
check whose condition a typo turned into "always true" would pass every
valid input unseen, so each check gets a row here (or in the fault tables
of ``test_solver.py``) that makes it fire with its exact message.  The
gate collects every ``_require`` message from the source with ``ast`` and
fails when one has no row and is not listed in ``NOT_YET_FAULTED``.  It
also fails on a ``raise InternalAssertionError`` outside ``_require``: such
a check would have no message for a row to match.

Faults are built by calling a private construction step on crafted input or by
patching a collaborator the solver resolves at call time
(``disjoint_paths_or_separator``, ``edge_components``, ``contract``,
``_solve_rec``).
"""

import ast
import re
from pathlib import Path
from unittest import mock

import pytest

import test_solver
from completegraph import complete_graph
from kempe_minors import solver
from kempe_minors.coloring import MatchingPartition
from kempe_minors.errors import InternalAssertionError
from kempe_minors.generators import k4_seed
from kempe_minors.graph import Multigraph, contract, edge
from kempe_minors.paths import Separator
from kempe_minors.solver import BagSystem, verify_solution

SOLVER = Path(solver.__file__)


def graph(*ids):
    """A multigraph from edge ids: "e" and "f" join x and y, and any other
    id's first two characters are its ends."""
    ends = {eid: ("x", "y") if eid in ("e", "f") else (eid[0], eid[1]) for eid in ids}
    return Multigraph(
        sorted({v for pair in ends.values() for v in pair}),
        [edge(eid, *pair) for eid, pair in ends.items()],
    )


# ---------------------------------------------------------------------------
# the separator step


# A separator step with k = 3 and pivot v: the star {va, vb, vw} reaches
# the far triangle {xy, yz, xz}, which holds T, only through the separator
# {ax, by}.  Class 2 avoids the separator and meets both sides.  The flow is
# patched to return this separator with its two lift paths.
DUMBBELL = ("va", "vb", "vw", "ax", "by", "xy", "yz", "xz")
CLASSES = ({"vb", "ax", "yz"}, {"va", "by", "xz"}, {"vw", "xy"})
T = {"yz", "xz", "xy"}
S = {"ax", "by"}
LIFT = (("va", "ax"), ("vb", "by"))
NEAR = frozenset({"va", "vb", "vw"})
FAR = frozenset({"xy", "yz", "xz"})


def separator_step(
    monkeypatch,
    ids=DUMBBELL,
    classes=CLASSES,
    ts=T,
    pivot="v",
    separator=S,
    lift=LIFT,
    sides=None,
    contraction=None,
):
    """Run ``_solve_menger`` on the dumbbell with one thing changed.

    The first flow call returns the crafted separator; deeper levels run the
    real flow.  ``sides`` replaces the split of H - S, ``contraction``
    wraps ``contract``.
    """
    flow = solver.disjoint_paths_or_separator
    crafted = [Separator(frozenset(separator), lift)]

    def first_call_crafted(*args):
        return crafted.pop() if crafted else flow(*args)

    monkeypatch.setattr(solver, "disjoint_paths_or_separator", first_call_crafted)
    if sides is not None:
        monkeypatch.setattr(solver, "edge_components", lambda H, edges: sides)
    if contraction is not None:
        monkeypatch.setattr(solver, "contract", contraction)
    H = graph(*ids)
    bags = solver._solve_menger(
        H, [frozenset(c) for c in classes], frozenset(ts), pivot, []
    )
    return H, bags


def without_edge(eid):
    """A contraction that also loses one edge of the far side."""

    def lossy(H, F):
        H_far, w = contract(H, F)
        return Multigraph(H_far.vertices, (e for e in H_far.edges() if e.id != eid)), w

    return lossy


def test_unfaulted_separator_step_lifts_to_a_valid_system(monkeypatch):
    H, bags = separator_step(monkeypatch)
    part = MatchingPartition.of(CLASSES)
    verdict = verify_solution(H, part, T, BagSystem.of(bags))
    assert verdict, verdict.violations


SEPARATOR_FAULTS = [
    pytest.param(
        dict(separator={"ax", "yz"}),
        "2 classes avoid the separator, expected exactly 1",
        id="two-avoiding-classes",
    ),
    pytest.param(
        dict(separator={"ax", "xz"}),
        "separator leaves 1 edge sides, expected 2",
        id="one-side",
    ),
    pytest.param(
        dict(sides=(NEAR - {"vw"}, FAR | {"vw"})),
        "star edges fall on both sides of the separator",
        id="star-split",
    ),
    # With the pivot rule (degree k) and the size check (|S| = k - 1) some
    # star edge lies outside S, and the star-side check puts it on side_c,
    # which then covers the pivot.  So this check needs a pivot of degree
    # k - 1 whose whole star is the separator, and a split to match.
    pytest.param(
        dict(
            pivot="z",
            separator={"xz", "yz"},
            sides=(NEAR | S, frozenset({"xy"})),
        ),
        "pivot vertex is not on the star side",
        id="pivot-off-star-side",
    ),
    # Each class is a matching and the pivot has degree k, so the avoiding
    # class has a star edge, which is on the star side: a class that is not
    # a matching is needed.
    pytest.param(
        dict(classes=({"vb", "vw", "ax", "yz"}, CLASSES[1], {"xy"})),
        "avoiding class misses the star side",
        id="avoiding-class-far-only",
    ),
    pytest.param(
        dict(classes=({"vb", "ax", "yz", "xy"}, CLASSES[1], {"vw"})),
        "avoiding class misses the far side",
        id="avoiding-class-near-only",
    ),
    pytest.param(
        dict(ts={"yz", "xz", "vw"}),
        "transversal edge on the star side",
        id="transversal-near",
    ),
    pytest.param(
        dict(ts=S),
        "no transversal edge on the far side",
        id="transversal-in-separator",
    ),
    # without by, the only crossing edge is ax; xz lies inside the far side
    pytest.param(
        dict(
            ids=tuple(eid for eid in DUMBBELL if eid != "by"),
            classes=(CLASSES[0], {"va", "xz"}, CLASSES[2]),
            separator={"ax", "xz"},
        ),
        "separator edge 'xz' does not cross the sides",
        id="separator-edge-inside-far-side",
    ),
    # Every class meets S or is the avoiding class, which meets the far
    # side, so a class empties only when the split puts an S-edge on the
    # star side and the class holds nothing else outside it.
    pytest.param(
        dict(
            classes=({"vb", "ax"}, CLASSES[1], {"vw", "xy", "yz"}),
            ts={"by", "xz", "yz"},
            sides=(NEAR | {"ax"}, FAR),
        ),
        "a restricted class became empty",
        id="class-on-star-side",
    ),
    pytest.param(
        dict(contraction=without_edge("xy")),
        "transversal lost by contraction",
        id="contraction-drops-t-edge",
    ),
    pytest.param(
        dict(contraction=lambda H, F: (H, "v")),
        "recursion does not descend",
        id="contraction-keeps-every-edge",
    ),
]


@pytest.mark.parametrize("fault, message", SEPARATOR_FAULTS)
def test_separator_step_fault(monkeypatch, fault, message):
    with pytest.raises(InternalAssertionError) as info:
        separator_step(monkeypatch, **fault)
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# the base case, the parallel branch, the complete endgame and the output


def base(ids, classes, ts):
    """The base case on two classes."""
    return solver._solve_base(
        graph(*ids), [frozenset(c) for c in classes], frozenset(ts)
    )


def parallel(ids, classes, ts):
    """The parallel branch on the pair e, f."""
    return solver._solve_with_parallel(
        graph(*ids), [frozenset(c) for c in classes], frozenset(ts), ("e", "f"), []
    )


ELL2 = ("e", "f", "xa", "yc", "xc", "yb")
ELL3 = ("e", "f", "xp", "yq", "xq", "yr", "xr", "yp")
ELL3_CLASSES = ({"e"}, {"f"}, {"xp", "yq"}, {"xq", "yr"}, {"xr", "yp"})


def solve_k4_with_wrong_bags():
    """solve on K_4 with a recursion that drops the third bag."""
    H, part = k4_seed()
    wrong = [frozenset({"e01"}), frozenset({"e02"})]
    with mock.patch.object(solver, "_solve_rec", lambda *args: wrong):
        solver.solve(H, part, {"e01", "e02", "e03"})


def complete_bags(n, ts):
    """The endgame construction on K_n."""
    return solver._complete_bags(complete_graph(n), frozenset(ts))


CONSTRUCTION_FAULTS = [
    pytest.param(
        lambda: base(("ab", "ac", "ad"), ({"ab", "ac"}, {"ad"}), {"ab", "ad"}),
        "two-matching union has a vertex of degree > 2",
        id="base-star",
    ),
    pytest.param(
        lambda: base(("ab", "cd"), ({"ab"}, {"cd"}), {"ab", "cd"}),
        "two-matching union is not connected",
        id="base-two-components",
    ),
    pytest.param(
        lambda: base(("ab", "bc"), ({"ab"}, {"bc"}), {"ab"}),
        "transversal does not hit the pair union twice",
        id="base-one-t-edge",
    ),
    pytest.param(
        lambda: parallel(ELL2, ({"e"}, {"xa", "yc"}, {"xc", "yb"}), {"e", "xa", "yb"}),
        "an edge of the parallel pair is in no class",
        id="parallel-edge-unclassified",
    ),
    pytest.param(
        lambda: parallel(
            ELL2, ({"e", "f"}, {"xa", "yc"}, {"xc", "yb"}), {"e", "xa", "yb"}
        ),
        "parallel edges share a class",
        id="parallel-pair-in-one-class",
    ),
    pytest.param(
        lambda: parallel(
            ELL2, ({"e"}, {"f", "yb"}, {"xa", "yc"}, {"xc"}), {"e", "f", "xa", "xc"}
        ),
        "classes of a parallel pair are not singletons",
        id="parallel-pair-class-grown",
    ),
    pytest.param(
        lambda: parallel(
            ELL2, ({"e"}, {"f"}, {"xa", "yc", "xc"}, {"yb"}), {"e", "f", "xa", "yb"}
        ),
        "a class besides the parallel pair has more than two edges",
        id="parallel-three-edge-class",
    ),
    pytest.param(
        lambda: parallel(
            ("e", "f", "ab", "cd"), ({"e"}, {"f"}, {"ab", "cd"}), {"e", "f", "ab"}
        ),
        "unclassified parallel structure (ell=1)",
        id="parallel-ell1",
    ),
    pytest.param(
        lambda: parallel(
            ("e", "f", "ab", "cd", "xa", "yb"),
            ({"e"}, {"f"}, {"ab", "cd"}, {"xa", "yb"}),
            {"e", "f", "ab", "xa"},
        ),
        "class 2 does not split across the parallel pair",
        id="parallel-class-off-the-pair",
    ),
    pytest.param(
        lambda: parallel(ELL3, ELL3_CLASSES, {"e", "f", "xp", "yq"}),
        "transversal pattern outside the case analysis",
        id="parallel-two-t-edges-in-one-class",
    ),
    # _solve_with_parallel checks once, while it orders the two-edge
    # classes, that each one is followed by exactly one other.
    pytest.param(
        lambda: parallel(
            ("e", "f", "xa", "yc", "xd", "yb"),
            ({"e"}, {"f"}, {"xa", "yc"}, {"xd", "yb"}),
            {"e", "f", "xa", "yb"},
        ),
        "two-edge classes do not chain cyclically",
        id="parallel-broken-chain",
    ),
    # The endgame construction on T sets that are not n edges of K_n: solve and
    # solve_complete never pass such a T.
    pytest.param(
        lambda: complete_bags(4, complete_graph(4).edge_ids),
        "no vertex of prescribed degree at most two",
        id="complete-every-edge-prescribed",
    ),
    pytest.param(
        lambda: complete_bags(4, {"e0-1", "e0-2", "e1-2", "e1-3", "e2-3"}),
        "no free edge at the degree-two pivot",
        id="complete-saturated-neighbour",
    ),
    pytest.param(
        lambda: complete_bags(5, {"e0-2", "e0-3", "e0-4", "e3-4"}),
        "bag holds more than one prescribed edge",
        id="complete-short-prescription",
    ),
    pytest.param(
        solve_k4_with_wrong_bags,
        "output fails verification: 2 bags for 3 classes; "
        "transversal edge 'e03' is in no bag",
        id="solve-output-missing-a-bag",
    ),
]


@pytest.mark.parametrize("fault, message", CONSTRUCTION_FAULTS)
def test_construction_fault(fault, message):
    with pytest.raises(InternalAssertionError) as info:
        fault()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# the gate


# Checks with no fault row, each with the check or condition that fires
# first on every input that could reach it.  The key is the message as
# written in solver.py, with every interpolated value shown as {}.
NOT_YET_FAULTED = {
    # the loop runs while more than three vertices remain, so a vertex
    # outside {v, x, y} always exists
    "spanning star without a free leaf": "pre-empted by the loop condition",
    # the pivot has one prescribed edge per prescribed neighbour, at most
    # two, and the star-leaf switch leaves it one
    "pivot vertex has more than two prescribed neighbors": (
        "pre-empted by 'no vertex of prescribed degree at most two'"
    ),
    # needs a deeper bag's prescribed edge parallel to xy; solve and
    # solve_complete reject parallel edges first, and a seeded search of
    # _complete_bags on K_4-K_6 with up to three parallel copies did not
    # reach it either
    "prescribed edges coincide": (
        "pre-empted by 'parallel edges present in the fallback'"
    ),
}


def template(node):
    """A message expression as text, each interpolated value as {}."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(template(part) for part in node.values)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return template(node.left) + template(node.right)
    return "{}"


def require_messages():
    """The message template of every _require call in solver.py."""
    tree = ast.parse(SOLVER.read_text())
    return [
        template(call.args[1])
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_require"
    ]


def pattern(text):
    """A regex matching the messages a template can produce."""
    return re.compile(".+".join(map(re.escape, text.split("{}"))), re.DOTALL)


def row_messages():
    tables = (
        SEPARATOR_FAULTS,
        CONSTRUCTION_FAULTS,
        test_solver.TestSeparatorBranch.FLOW_FAULTS,
        test_solver.TestCompleteEndgame.FALLBACK_FAULTS,
    )
    return [param.values[-1] for table in tables for param in table]


def test_every_require_has_a_fault_row_or_a_reason():
    messages = require_messages()
    rows = row_messages()
    unfaulted = {
        text for text in messages if not any(pattern(text).fullmatch(m) for m in rows)
    }
    # fails on a new check without a row, and on a stale entry: a listed
    # check that gained a row or is gone
    assert unfaulted == set(NOT_YET_FAULTED)
    # every row names a check that exists
    for row in rows:
        assert any(pattern(text).fullmatch(row) for text in messages), row
    # a row cannot tell apart two checks with one message
    repeated = {text for text in messages if messages.count(text) > 1}
    assert repeated == set()


def test_every_runtime_check_is_a_require():
    tree = ast.parse(SOLVER.read_text())
    (require,) = (
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_require"
    )
    inside = set(map(id, ast.walk(require)))
    stray = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and id(node) not in inside
        and "InternalAssertionError" in ast.unparse(node)
    ]
    assert stray == [], f"solver.py raises InternalAssertionError on lines {stray}"
