"""verify_solution against the definition of a rooted complete minor.

Solved systems from the corpus and the census are perturbed once, and the
verdict is compared with a checker written from the definition on the line
graph L(H): k bags, each a nonempty set of nodes of L(H) that induces a
connected subgraph and holds exactly one T-edge, pairwise disjoint and
pairwise adjacent in L(H).  The whole verdict, every message in order, is
also compared with the checker verify_solution replaced.
"""

from functools import cache
from itertools import combinations, islice

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kempe_minors.coloring import MatchingPartition
from kempe_minors.corpus import sample_transversals, standard_corpus
from kempe_minors.graph import Multigraph, edge
from kempe_minors.solver import BagSystem, solve, verify_solution
from linegraph import line_graph
from referenceverify import reference_verify_solution
from test_census import DRAWS, census


def valid_by_definition(H, part, T, bags):
    L = line_graph(H)
    ts = frozenset(T)
    if len(bags) != part.k:
        return False
    for bag in bags.bags:
        if not bag or not bag <= L.keys() or len(bag & ts) != 1:
            return False
        start = min(bag)
        reached, stack = {start}, [start]
        while stack:
            for n in L[stack.pop()] & bag - reached:
                reached.add(n)
                stack.append(n)
        if reached != bag:
            return False
    return all(
        not (a & b) and any(L[n] & b for n in a)
        for a, b in combinations(bags.bags, 2)
    )


@cache
def solved():
    """(H, part, T, bags) for small corpus instances and census draws, the
    census ones with parallel edges and every step kind."""
    pool = []
    for name, (H, part) in standard_corpus():
        if H.num_edges() <= 40:
            for T in sample_transversals(part, 2, seed=len(pool)):
                pool.append((H, part, T))
    pool += islice(census(DRAWS[0][0]), 0, 3000, 50)
    return [(H, part, T, solve(H, part, T)[0].bags) for H, part, T in pool]


@st.composite
def perturbed(draw):
    """A solved system with one perturbation applied."""
    H, part, T, bags = draw(st.sampled_from(solved()))
    bags = [set(bag) for bag in bags]
    i, j = draw(st.permutations(range(len(bags))))[:2]
    kind = draw(st.sampled_from(["move", "drop", "add", "swap", "merge"]))
    if kind == "move":
        eid = draw(st.sampled_from(sorted(bags[i])))
        bags[i].discard(eid)
        bags[j].add(eid)
    elif kind == "drop":
        bags[i].discard(draw(st.sampled_from(sorted(bags[i]))))
    elif kind == "add":
        bags[i].add(draw(st.sampled_from(H.edge_ids)))
    elif kind == "swap":
        # bag i's T-edge goes to bag j and bag j's to bag i
        (ti,), (tj,) = bags[i] & T, bags[j] & T
        bags[i] ^= {ti, tj}
        bags[j] ^= {ti, tj}
    else:
        bags[i] |= bags[j]
        del bags[j]
    return H, part, T, BagSystem.of(bags)


@st.composite
def multigraph_systems(draw):
    """A multigraph with parallel edges, its partition into single edges, a
    set T of its edges and bag systems with empty, unknown-edge, overlapping
    and disconnected bags."""
    n = draw(st.integers(min_value=2, max_value=6))
    verts = [f"v{i}" for i in range(n)]
    pairs = [(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=10))
    H = Multigraph(verts, [edge(f"e{i}", u, v) for i, (u, v) in enumerate(chosen)])
    names = list(H.edge_ids) + ["zz"]
    bags = BagSystem.of(
        draw(st.lists(st.sets(st.sampled_from(names)), min_size=1, max_size=5))
    )
    T = draw(st.sets(st.sampled_from(H.edge_ids)))
    part = MatchingPartition.of([{eid} for eid in H.edge_ids])
    return H, part, T, bags


@seed(20181)
@settings(max_examples=400, deadline=None, database=None)
@given(perturbed())
def test_verdict_agrees_with_the_definition(case):
    H, part, T, bags = case
    verdict = verify_solution(H, part, T, bags)
    assert bool(verdict) == valid_by_definition(H, part, T, bags), verdict.violations


def test_every_single_edge_move_agrees_with_the_definition():
    # exhaustive over the first solved systems, and both verdicts occur
    verdicts = set()
    for H, part, T, bags in solved()[:40]:
        assert valid_by_definition(H, part, T, BagSystem(bags))
        for i, j in combinations(range(len(bags)), 2):
            for src, dst in ((i, j), (j, i)):
                for eid in bags[src]:
                    moved = list(bags)
                    moved[src] = bags[src] - {eid}
                    moved[dst] = bags[dst] | {eid}
                    system = BagSystem(tuple(moved))
                    verdict = bool(verify_solution(H, part, T, system))
                    assert verdict == valid_by_definition(H, part, T, system)
                    verdicts.add(verdict)
    assert verdicts == {True, False}


# The whole verdict, every message in order, equals the checker this one
# replaced (tests/referenceverify.py), on perturbed solved systems and on
# random multigraph systems.


@seed(20182)
@settings(max_examples=400, deadline=None, database=None)
@given(perturbed())
def test_verdict_equals_the_reference_on_perturbed_systems(case):
    assert verify_solution(*case) == reference_verify_solution(*case)


@seed(20183)
@settings(max_examples=400, deadline=None, database=None)
@given(multigraph_systems())
def test_verdict_equals_the_reference_on_random_systems(case):
    assert verify_solution(*case) == reference_verify_solution(*case)


def test_an_edge_in_three_bags_names_the_first_bag_twice():
    H = Multigraph(
        "abcde",
        [edge("ab", "a", "b"), edge("bc", "b", "c"), edge("cd", "c", "d"),
         edge("de", "d", "e")],
    )
    part = MatchingPartition.of([{"ab", "cd"}, {"bc", "de"}])
    T = {"ab", "de"}
    bags = BagSystem.of([{"ab", "bc"}, {"ab"}, {"ab", "bc"}])
    verdict = verify_solution(H, part, T, bags)
    assert verdict.violations == (
        "3 bags for 2 classes",
        "edge 'ab' occurs in bags 0 and 1",
        "edge 'ab' occurs in bags 0 and 2",
        "edge 'bc' occurs in bags 0 and 2",
        "transversal edge 'de' is in no bag",
    )
    assert verdict == reference_verify_solution(H, part, T, bags)
