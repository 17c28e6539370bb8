"""Seeded document fuzzing of the command line.

Corpus instance and solution documents get 1-3 structural edits each and
go to ``kempe-minors solve``, ``check``, ``verify`` and ``oracle``.
Whatever the edits, every call exits 0, 1 or 2: a malformed document is a
document error (2) or a rejected instance (1), never a traceback and never
an internal assertion (3).  Each call draws from its own seed, so a failing
call replays alone: ``fuzz_call(command, n, tmp_path)``.
"""

import copy
import json
import random
from functools import cache

import pytest

from kempe_minors.cli import main
from kempe_minors.corpus import sample_transversals, standard_corpus
from kempe_minors.serialization import emit_instance, emit_solution
from kempe_minors.solver import solve

CALLS = 60  # per command
FIELDS = ["vertices", "edges", "classes", "transversal", "bags", "trace", "id", "ends"]


@cache
def documents():
    """K_4, the one corpus instance within the oracle's 8 edges, and 24
    others, each as an instance document with a transversal and the
    solution document ``solve`` gives for it, trace included."""
    corpus = dict(standard_corpus())
    names = ["k4"] + random.Random(0).sample(sorted(corpus.keys() - {"k4"}), 24)
    docs = []
    for H, part in map(corpus.get, names):
        (T,) = sample_transversals(part, 1, seed=0)
        bags, trace = solve(H, part, T)
        docs.append(
            (
                json.loads(emit_instance(H, part, T)),
                json.loads(emit_solution(bags, trace)),
            )
        )
    return docs


def random_json(rng, ids, depth=0):
    """A small JSON value; a string is often an id the instance uses."""
    kind = rng.randrange(8 if depth < 2 else 6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.choice([True, False])
    if kind == 2:
        return rng.choice([-1, 0, 2, 1.5])
    if kind == 3:
        return rng.choice(["", "w", "zz"])
    if kind in (4, 5):
        return rng.choice(ids)
    if kind == 6:
        return [random_json(rng, ids, depth + 1) for _ in range(rng.randrange(4))]
    return {rng.choice(FIELDS): random_json(rng, ids, depth + 1)}


def containers(value):
    """Every list and object inside value, value included."""
    if isinstance(value, (list, dict)):
        yield value
        for child in value if isinstance(value, list) else value.values():
            yield from containers(child)


def edit(rng, doc, ids):
    """One structural edit, in place, of a list or object inside doc: drop
    or duplicate an entry, swap or shuffle entries, replace a value by
    random JSON, or insert a known id."""
    node = rng.choice(list(containers(doc)))
    keys = list(range(len(node))) if isinstance(node, list) else list(node)
    op = rng.choice(["drop", "duplicate", "swap", "shuffle", "replace", "insert"])
    if not keys or op == "insert":
        if isinstance(node, list):
            node.insert(rng.randrange(len(node) + 1), rng.choice(ids))
        else:
            node[rng.choice(FIELDS)] = rng.choice(ids)
        return
    k, j = rng.choice(keys), rng.choice(keys)
    if op == "drop":
        del node[k]
    elif op == "duplicate" and isinstance(node, list):
        node.insert(k, copy.deepcopy(node[k]))
    elif op == "duplicate":
        node[j] = copy.deepcopy(node[k])
    elif op == "swap":
        node[k], node[j] = node[j], node[k]
    elif op == "shuffle":
        values = [node[x] for x in keys]
        rng.shuffle(values)
        for x, v in zip(keys, values):
            node[x] = v
    else:
        node[k] = random_json(rng, ids)


EDITED = 2000  # instance documents compared with the reference parser


@cache
def edited_instances():
    """EDITED instance documents as JSON text, each one of ``documents()``
    with 1-3 edits, every one drawn from its own seed."""
    texts = []
    for n in range(EDITED):
        rng = random.Random(f"instance:{n}")
        inst = copy.deepcopy(rng.choice(documents())[0])
        ids = inst["vertices"] + [e["id"] for e in inst["edges"]]
        for _ in range(rng.randint(1, 3)):
            edit(rng, inst, ids)
        texts.append(json.dumps(inst))
    return tuple(texts)


def fuzz_call(command, n, tmp_path):
    """Call n of command on freshly edited documents; returns the exit code."""
    rng = random.Random(f"{command}:{n}")
    inst, sol = copy.deepcopy(rng.choice(documents()))
    ids = inst["vertices"] + [e["id"] for e in inst["edges"]]
    edited = rng.choice([[inst], [sol], [inst, sol]]) if command == "check" else [inst]
    for doc in edited:
        for _ in range(rng.randint(1, 3)):
            edit(rng, doc, ids)
    inst_path, sol_path = tmp_path / "inst.json", tmp_path / "sol.json"
    inst_path.write_text(json.dumps(inst))
    sol_path.write_text(json.dumps(sol))
    args = {
        "solve": ["solve", "-i", inst_path, "-o", tmp_path / "out.json"],
        "check": ["check", "-i", inst_path, "-s", sol_path],
        "verify": ["verify", "-i", inst_path],
        "oracle": ["oracle", "-i", inst_path, "--max-edges", "8"],
    }[command]
    return main([str(a) for a in args])


@pytest.mark.parametrize("command", ["solve", "check", "verify", "oracle"])
def test_edited_documents_exit_0_1_or_2(command, tmp_path, capsys):
    codes = set()
    for n in range(CALLS):
        try:
            code = fuzz_call(command, n, tmp_path)
        except Exception as exc:
            raise AssertionError(f"call {n} of {command} raised") from exc
        assert code in (0, 1, 2), (n, capsys.readouterr().err)
        codes.add(code)
    # the edits leave some documents valid, some rejected, some malformed
    assert codes == {0, 1, 2}
