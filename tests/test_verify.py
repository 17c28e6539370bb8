"""verify_solution against the definition of a rooted complete minor.

Solved systems from the corpus and the census are perturbed once, and the
verdict is compared with a checker written from the definition on the line
graph L(H): k bags, each a nonempty set of nodes of L(H) that induces a
connected subgraph and holds exactly one T-edge, pairwise disjoint and
pairwise adjacent in L(H).
"""

from functools import cache
from itertools import combinations, islice

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kempe_minors.corpus import sample_transversals, standard_corpus
from kempe_minors.solver import BagSystem, solve, verify_solution
from linegraph import line_graph
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
