"""Instance and solution documents: round trips, diagnostics, DOT export."""

import json
import re
from pathlib import Path

import pytest

from kempe_minors import serialization
from kempe_minors.coloring import MatchingPartition
from kempe_minors.corpus import sample_transversals, standard_corpus
from kempe_minors.errors import KempeMinorError, ParseError, SchemaViolationError
from kempe_minors.generators import delete_vertex, gen_circulant, k4_seed
from kempe_minors.graph import Multigraph, edge
from kempe_minors.serialization import (
    emit_instance,
    emit_solution,
    line_graph_to_dot,
    parse_instance,
    parse_solution,
)
from kempe_minors.solver import BagSystem, ReductionTrace, TraceStep, solve
from referenceemit import reference_emit_instance, reference_emit_solution
from referenceparse import reference_parse_instance
from test_fuzz import edited_instances
from test_relations import instances as relation_instances


# The README's "Instance format" example as emit_instance writes it.
README_EXAMPLE = """{
  "vertices": [
    "x",
    "y",
    "z"
  ],
  "edges": [
    {
      "id": "e",
      "ends": [
        "x",
        "y"
      ]
    },
    {
      "id": "g",
      "ends": [
        "y",
        "z"
      ]
    }
  ],
  "classes": [
    [
      "e"
    ],
    [
      "g"
    ]
  ],
  "transversal": [
    "e",
    "g"
  ]
}
"""


class TestInstanceRoundTrip:
    def test_without_transversal(self):
        H, part = k4_seed()
        text = emit_instance(H, part)
        H2, part2, T2 = parse_instance(text)
        assert H2.vertices == H.vertices
        assert H2.edge_ids == H.edge_ids
        assert [e.ends for e in H2.edges()] == [e.ends for e in H.edges()]
        assert part2.classes == part.classes
        assert T2 is None

    def test_with_transversal(self):
        H, part = gen_circulant(5, (0, 1, 2))
        T = frozenset(min(c) for c in part.classes)
        _, _, T2 = parse_instance(emit_instance(H, part, T))
        assert T2 == T

    def test_emitted_text_is_stable(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Instance format\n", 1)[1]
        example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        assert emit_instance(*parse_instance(example)) == README_EXAMPLE


class TestSolutionRoundTrip:
    def test_bags_survive(self):
        bags = BagSystem.of([{"a", "b"}, {"c"}])
        assert parse_solution(emit_solution(bags)).bags == bags.bags

    def test_trace_is_emitted(self):
        H, part = k4_seed()
        T = frozenset(min(c) for c in part.classes)
        bags, trace = solve(H, part, T)
        doc = json.loads(emit_solution(bags, trace))
        assert [s["kind"] for s in doc["trace"]] == list(trace.kinds())

    def test_trace_details_are_json_clean(self):
        trace = ReductionTrace(
            (TraceStep("menger", {"star": frozenset({"b", "a"}), "k": 3}),)
        )
        doc = json.loads(emit_solution(BagSystem.of([{"x"}]), trace))
        assert doc["trace"][0]["details"]["star"] == ["a", "b"]


# Ids that JSON must escape, or that ASCII escaping writes as \u escapes
# (an astral character as a surrogate pair), and a %-template field; each
# is a vertex and in an edge id.
AWKWARD = ['"', "\\", "\n", "\x01", "\u2028", "\u00e9", "\U0001f600", "%s"]


def awkward_instance():
    edges = [edge(f"{a}{b}", a, b) for a, b in zip(AWKWARD, AWKWARD[1:])]
    ids = sorted(e.id for e in edges)
    part = MatchingPartition.of([ids[0::2], ids[1::2]])
    return Multigraph(AWKWARD, edges), part, frozenset(ids[:2])


def ladder_graphs():
    """The 18 size-ladder graphs: circulants m in {53, 101, 211} with
    k in {5, 9, 15}, and each one's first-vertex deletion."""
    graphs = []
    for m in (53, 101, 211):
        for k in (5, 9, 15):
            H, part = gen_circulant(m, tuple(range(k)))
            graphs += [(H, part), delete_vertex(H, part, H.vertices[0])]
    return graphs


class TestMatchesTheReplacedEmitters:
    """The emitters write the bytes ``json.dumps(doc, indent=2)`` wrote."""

    @staticmethod
    def same_instance(H, part, T=None):
        assert emit_instance(H, part, T) == reference_emit_instance(H, part, T)

    def test_corpus_instances(self):
        for _, (H, part) in standard_corpus():
            self.same_instance(H, part)
            for T in sample_transversals(part, 3, seed=0):
                self.same_instance(H, part, T)

    def test_size_ladder_graphs(self):
        graphs = ladder_graphs()
        assert len(graphs) == 18
        for H, part in graphs:
            self.same_instance(H, part)
            (T,) = sample_transversals(part, 1, seed=0)
            self.same_instance(H, part, T)

    def test_edited_documents_that_parse(self):
        parsed = 0
        for text in edited_instances():
            try:
                H, part, T = parse_instance(text)
            except KempeMinorError:
                continue
            parsed += 1
            self.same_instance(H, part, T)
        assert parsed == 352

    def test_ids_that_need_escapes(self):
        H, part, T = awkward_instance()
        self.same_instance(H, part, T)
        text = emit_instance(H, part, T)
        assert text.isascii() and "\\ud83d\\ude00" in text
        assert outcome(parse_instance, text) == (
            H.vertices, tuple(H.edges()), part.classes, T
        )
        bags = BagSystem.of([AWKWARD[:3], AWKWARD[3:]])
        trace = ReductionTrace((TraceStep("menger", {"star": frozenset(AWKWARD)}),))
        for tr in (None, trace):
            assert emit_solution(bags, tr) == reference_emit_solution(bags, tr)

    def test_empty_collections(self):
        H = Multigraph(["a", "b"], [edge("e", "a", "b")])
        self.same_instance(Multigraph([], []), MatchingPartition.of([]))
        self.same_instance(Multigraph([], []), MatchingPartition.of([]), frozenset())
        self.same_instance(Multigraph(["a"], []), MatchingPartition.of([[]]))
        self.same_instance(H, MatchingPartition.of([]))
        self.same_instance(H, MatchingPartition.of([["e"], []]), frozenset({"e"}))
        for bags in (BagSystem(()), BagSystem.of([[]]), BagSystem.of([["e"], []])):
            for trace in (None, ReductionTrace(())):
                assert emit_solution(bags, trace) == reference_emit_solution(bags, trace)

    def test_solutions_with_and_without_trace(self):
        kinds, keys = set(), set()
        for H, part, ts in relation_instances():
            for T in ts:
                bags, trace = solve(H, part, T)
                assert emit_solution(bags) == reference_emit_solution(bags)
                assert emit_solution(bags, trace) == reference_emit_solution(bags, trace)
                kinds.update(trace.kinds())
                keys.update(k for step in trace.steps for k in step.details)
        # every kind of step the recursion takes, and the set, pair and
        # dict details of the separator and parallel steps
        assert {"menger", "separator", "parallel", "complete"} <= kinds
        assert {"side_c", "side_d", "lift_paths", "pair", "big_bag"} <= keys


class TestNoPurePythonEncoder:
    """json encodes an indented document in pure Python, through
    ``json.encoder._make_iterencode``; the emitters must not reach it."""

    def test_emitters_do_not_call_it(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder was called")

        H, part = gen_circulant(5, (0, 1, 2))
        T = frozenset(min(c) for c in part.classes)
        bags, _trace = solve(H, part, T)
        expected = [
            reference_emit_instance(H, part),
            reference_emit_instance(H, part, T),
            reference_emit_solution(bags),
        ]
        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        with pytest.raises(AssertionError, match="pure-Python"):
            reference_emit_instance(H, part)
        got = [emit_instance(H, part), emit_instance(H, part, T), emit_solution(bags)]
        assert got == expected


class TestDiagnostics:
    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_instance("{nope")

    def test_duplicate_edge_id_is_a_schema_violation(self):
        text = json.dumps(
            {
                "vertices": ["a", "b", "c"],
                "edges": [
                    {"id": "e", "ends": ["a", "b"]},
                    {"id": "e", "ends": ["b", "c"]},
                ],
                "classes": [["e"]],
            }
        )
        with pytest.raises(SchemaViolationError, match="'e'") as info:
            parse_instance(text)
        assert info.value.path == "edges[1].id"

    def test_unknown_endpoint_is_a_schema_violation(self):
        doc = {
            "vertices": ["a", "b"],
            "edges": [{"id": "e", "ends": ["a", "b"]}, {"id": "g", "ends": ["b", "q"]}],
            "classes": [["e"], ["g"]],
        }
        with pytest.raises(SchemaViolationError) as info:
            parse_instance(json.dumps(doc))
        assert str(info.value) == "edges[1].ends[1]: unknown vertex id 'q'"

    def test_missing_field(self):
        with pytest.raises(SchemaViolationError) as info:
            parse_instance(json.dumps({"vertices": [], "edges": []}))
        assert info.value.path == "classes"

    def test_bad_ends(self):
        doc = {
            "vertices": ["a", "b"],
            "edges": [{"id": "e", "ends": ["a", "b", "b"]}],
            "classes": [],
        }
        with pytest.raises(SchemaViolationError) as info:
            parse_instance(json.dumps(doc))
        assert info.value.path == "edges[0].ends"

    def test_loop_edge(self):
        doc = {
            "vertices": ["a"],
            "edges": [{"id": "e", "ends": ["a", "a"]}],
            "classes": [],
        }
        with pytest.raises(SchemaViolationError) as info:
            parse_instance(json.dumps(doc))
        assert info.value.path == "edges[0]"

    def test_unknown_edge_in_classes(self):
        doc = {
            "vertices": ["a", "b"],
            "edges": [{"id": "e", "ends": ["a", "b"]}],
            "classes": [["e"], ["zz"]],
        }
        with pytest.raises(SchemaViolationError) as info:
            parse_instance(json.dumps(doc))
        assert info.value.path == "classes[1][0]"

    def test_unknown_edge_in_transversal(self):
        doc = {
            "vertices": ["a", "b"],
            "edges": [{"id": "e", "ends": ["a", "b"]}],
            "classes": [["e"]],
            "transversal": ["zz"],
        }
        with pytest.raises(SchemaViolationError) as info:
            parse_instance(json.dumps(doc))
        assert info.value.path == "transversal[0]"

    # one repeated id per list: parsing would otherwise merge the repeats,
    # and the instance would not emit as it was read
    DUPLICATES = [
        pytest.param(
            {"vertices": ["x", "y", "z", "x"]},
            "vertices[3]: duplicate vertex id 'x'",
            id="vertices",
        ),
        pytest.param(
            {"classes": [["e", "e"], ["g"]]},
            "classes[0][1]: duplicate edge id 'e'",
            id="classes",
        ),
        pytest.param(
            {"transversal": ["e", "g", "e"]},
            "transversal[2]: duplicate edge id 'e'",
            id="transversal",
        ),
    ]

    @pytest.mark.parametrize("change, message", DUPLICATES)
    def test_duplicate_id_is_a_schema_violation(self, change, message):
        doc = {
            "vertices": ["x", "y", "z"],
            "edges": [{"id": "e", "ends": ["x", "y"]}, {"id": "g", "ends": ["y", "z"]}],
            "classes": [["e"], ["g"]],
            "transversal": ["e", "g"],
        }
        parse_instance(json.dumps(doc))
        with pytest.raises(SchemaViolationError) as info:
            parse_instance(json.dumps({**doc, **change}))
        assert str(info.value) == message

    def test_duplicate_edge_id_in_a_bag_is_a_schema_violation(self):
        with pytest.raises(SchemaViolationError) as info:
            parse_solution(json.dumps({"bags": [["e", "e"], ["g"]]}))
        assert str(info.value) == "bags[0][1]: duplicate edge id 'e'"

    def test_solution_requires_bags(self):
        with pytest.raises(SchemaViolationError) as info:
            parse_solution("{}")
        assert info.value.path == "bags"

    @pytest.mark.parametrize("text", ["[]", "3", '"bags"', "null"])
    def test_solution_must_be_an_object(self, text):
        with pytest.raises(
            SchemaViolationError, match="solution document must be an object"
        ) as info:
            parse_solution(text)
        assert info.value.path == "$"

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_instance, "[]", "$: instance document must be an object"),
            (parse_solution, '{"bags": {}}', "bags: expected a list"),
        ],
        ids=["instance-not-an-object", "bags-not-a-list"],
    )
    def test_document_shape_is_located(self, parse, text, message):
        with pytest.raises(SchemaViolationError) as info:
            parse(text)
        assert str(info.value) == message


def outcome(parse, text):
    """What ``parse`` makes of an instance document: its vertices, edge
    records, classes and transversal, or its error's type, path and
    message."""
    try:
        H, part, T = parse(text)
    except KempeMinorError as exc:
        return type(exc), getattr(exc, "path", None), str(exc)
    return H.vertices, tuple(H.edges()), part.classes, T


VALID = {
    "vertices": ["a", "b", "c", "d"],
    "edges": [
        {"id": "ab", "ends": ["a", "b"]},
        {"id": "bc", "ends": ["b", "c"]},
        {"id": "cd", "ends": ["c", "d"]},
    ],
    "classes": [["ab", "cd"], ["bc"]],
    "transversal": ["ab", "bc"],
}


def edges_with(*changes):
    """VALID's edges, with ``(i, fields)`` updating edge i's fields."""
    edges = [dict(e) for e in VALID["edges"]]
    for i, fields in changes:
        edges[i].update(fields)
    return edges


class TestMatchesTheReplacedParser:
    """The whole-list checks accept what the entry-by-entry parser accepted,
    and every rejection keeps its type, path and message."""

    def test_edited_corpus_documents(self):
        kinds = set()
        for n, text in enumerate(edited_instances()):
            got = outcome(parse_instance, text)
            assert got == outcome(reference_parse_instance, text), n
            kinds.add(got[0] if isinstance(got[0], type) else "parsed")
        # the edits leave some documents valid and make the others break
        # the schema (every text is well-formed JSON)
        assert kinds == {"parsed", SchemaViolationError}

    # two faults each, in different fields or entries: the first in
    # document order is the one reported
    TWO_FAULTS = [
        pytest.param(
            {"vertices": ["a", "b", "c", "d", "a"], "classes": [["zz"]]},
            "vertices[4]", "duplicate vertex id 'a'",
            id="vertices-before-classes",
        ),
        pytest.param(
            {"edges": "ab", "classes": None},
            "edges", "expected a list",
            id="edges-before-classes",
        ),
        pytest.param(
            {"edges": edges_with((0, {"ends": ["a", "zz"]}), (2, {"id": 7}))},
            "edges[0].ends[1]", "unknown vertex id 'zz'",
            id="first-edge-first",
        ),
        pytest.param(
            {"edges": edges_with((1, {"id": "ab"})), "classes": [["zz"]]},
            "edges[1].id", "duplicate edge id 'ab'",
            id="duplicate-edge-before-classes",
        ),
        pytest.param(
            {"edges": edges_with((0, {"ends": ["a", "a"]}), (1, {"ends": ["b"]}))},
            "edges[0]", "edge 'ab' would be a loop at 'a'",
            id="loop-before-later-ends",
        ),
        pytest.param(
            {"edges": edges_with((0, {"id": ["ab"], "ends": ["a", "zz"]}))},
            "edges[0].id", "expected a string",
            id="id-before-ends",
        ),
        pytest.param(
            {"classes": [["ab", "cd"], ["bc", "bc"]], "transversal": ["zz"]},
            "classes[1][1]", "duplicate edge id 'bc'",
            id="classes-before-transversal",
        ),
        pytest.param(
            {"classes": [["zz", "ab", "ab"]]},
            "classes[0][0]", "unknown edge id 'zz'",
            id="unknown-before-duplicate",
        ),
        pytest.param(
            {"classes": [["ab", "ab", "zz"]]},
            "classes[0][1]", "duplicate edge id 'ab'",
            id="duplicate-before-unknown",
        ),
        pytest.param(
            {"edges": [{"id": 1}], "classes": None},
            "edges[0]", "expected an object with id and ends",
            id="edge-object-before-classes",
        ),
        # Multigraph, which alone refuses loops, checks each edge's id, ends
        # and loop in turn, in document order, as the walk does; these put a
        # loop after an earlier edge's other fault, which a loop check over
        # the whole list ahead of the id and end checks would misreport
        pytest.param(
            {"edges": edges_with((0, {"ends": ["a", "zz"]}), (2, {"ends": ["c", "c"]}))},
            "edges[0].ends[1]", "unknown vertex id 'zz'",
            id="unknown-end-before-loop",
        ),
        pytest.param(
            {"edges": edges_with((1, {"id": "ab"}), (2, {"ends": ["c", "c"]}))},
            "edges[1].id", "duplicate edge id 'ab'",
            id="duplicate-edge-before-loop",
        ),
        pytest.param(
            {"edges": edges_with((0, {"ends": ["a"]}), (2, {"id": "ab"}))},
            "edges[0].ends", "expected exactly two endpoints",
            id="short-ends-before-duplicate",
        ),
    ]

    @pytest.mark.parametrize("change, path, message", TWO_FAULTS)
    def test_first_fault_is_reported(self, change, path, message):
        text = json.dumps({**VALID, **change})
        got = outcome(parse_instance, text)
        assert got == (SchemaViolationError, path, f"{path}: {message}")
        assert got == outcome(reference_parse_instance, text)

    def test_valid_documents_skip_the_walk(self, monkeypatch):
        """The walk only names the entry behind a refusal and accepts
        nothing, so a walk that runs at all shows a whole-list check
        refusing valid input."""
        texts = []
        for _, (H, part) in standard_corpus():
            texts.append(emit_instance(H, part))
            texts += [emit_instance(H, part, T) for T in sample_transversals(part, 3)]
        for H, part in ladder_graphs():
            (T,) = sample_transversals(part, 1)
            texts += [emit_instance(H, part), emit_instance(H, part, T)]
        expected = [outcome(reference_parse_instance, text) for text in texts]

        def refuse(*args):
            raise AssertionError("a valid edge list was walked")

        monkeypatch.setattr(serialization, "_locate_edge_fault", refuse)
        assert [outcome(parse_instance, text) for text in texts] == expected
        assert all(isinstance(got[0], tuple) for got in expected)

    def test_valid_document_parses_alike(self):
        text = json.dumps(VALID)
        assert outcome(parse_instance, text) == outcome(reference_parse_instance, text)
        assert outcome(parse_instance, text)[0] == ("a", "b", "c", "d")


def parallel_multigraph():
    """A parallel pair m, d, ids out of endpoint order, an isolated vertex."""
    return Multigraph(
        ["w", "x", "y", "z", "u"],
        [
            edge("m", "x", "y"),
            edge("d", "y", "x"),
            edge("k", "y", "z"),
            edge("a", "z", "w"),
            edge("c", "x", "w"),
        ],
    )


# The full DOT text of the line graph: one node per edge id, then one line
# per pair a < b of edges sharing an end, grouped by a and sorted by b.
K4_DOT = """graph L {
  node [shape=box];
  "e01";
  "e02";
  "e03";
  "e12";
  "e13";
  "e23";
  "e01" -- "e02";
  "e01" -- "e03";
  "e01" -- "e12";
  "e01" -- "e13";
  "e02" -- "e03";
  "e02" -- "e12";
  "e02" -- "e23";
  "e03" -- "e13";
  "e03" -- "e23";
  "e12" -- "e13";
  "e12" -- "e23";
  "e13" -- "e23";
}
"""
PARALLEL_DOT = """graph L {
  node [shape=box];
  "a";
  "c";
  "d";
  "k";
  "m";
  "a" -- "c";
  "a" -- "k";
  "c" -- "d";
  "c" -- "m";
  "d" -- "k";
  "d" -- "m";
  "k" -- "m";
}
"""
EDGELESS_DOT = """graph L {
  node [shape=box];
}
"""


class TestDot:
    def test_line_graph_dot(self):
        for H, text in (
            (k4_seed()[0], K4_DOT),
            (parallel_multigraph(), PARALLEL_DOT),
            (Multigraph(["a", "b"], []), EDGELESS_DOT),
        ):
            assert line_graph_to_dot(H) == text

    def test_quotes_and_backslashes_in_ids_are_escaped(self):
        H = Multigraph(["a", "b", "c"], [edge('x"y', "a", "b"), edge("z\\", "b", "c")])
        assert line_graph_to_dot(H) == (
            "graph L {\n"
            "  node [shape=box];\n"
            '  "x\\"y";\n'
            '  "z\\\\";\n'
            '  "x\\"y" -- "z\\\\";\n'
            "}\n"
        )
