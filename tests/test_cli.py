"""The command-line interface, driven mostly in process via main()."""

import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import kempe_minors
from kempe_minors import solver
from kempe_minors.cli import EXIT_INTERNAL, EXIT_OK, EXIT_REJECT, EXIT_USAGE, main
from kempe_minors.coloring import MatchingPartition
from kempe_minors.errors import InternalAssertionError
from kempe_minors.generators import gen_circulant, k4_seed
from kempe_minors.graph import Multigraph, edge
from kempe_minors.serialization import emit_instance, emit_solution
from kempe_minors.solver import BagSystem, solve
from test_oracle import deep_search_instance, recursion_limit


def write_instance(path, H, part, T=None):
    path.write_text(emit_instance(H, part, T))
    return str(path)


def fault_on_k4(monkeypatch):
    """Make every solve of an instance holding K_4's edge ``e01`` fail a
    runtime check; other instances solve as before."""
    solve_rec = solver._solve_rec

    def faulty(H, classes, ts, trace):
        if "e01" in H:
            raise InternalAssertionError("injected")
        return solve_rec(H, classes, ts, trace)

    monkeypatch.setattr(solver, "_solve_rec", faulty)


def k4_with_e_acute():
    """K_4 with a vertex é; each edge id names its ends."""
    names = ["a", "b", "c", "é"]
    H = Multigraph(names, [edge(u + v, u, v) for u, v in combinations(names, 2)])
    return H, MatchingPartition.of([{"ab", "cé"}, {"ac", "bé"}, {"aé", "bc"}])


def run_under_an_ascii_locale(*argv):
    """The CLI in a fresh interpreter whose locale encodes only ASCII."""
    src = str(Path(kempe_minors.__file__).parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONPATH=src)
    env.pop("PYTHONUTF8", None)
    return subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "kempe_minors.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def k4_instance(tmp_path, with_transversal=True):
    H, part = k4_seed()
    T = frozenset(min(c) for c in part.classes) if with_transversal else None
    return write_instance(tmp_path / "k4.json", H, part, T)


class TestSolveAndCheck:
    def test_round_trip_accepts(self, tmp_path, capsys):
        inst = k4_instance(tmp_path)
        out = str(tmp_path / "solution.json")
        assert main(["solve", "-i", inst, "-o", out]) == EXIT_OK
        assert main(["check", "-i", inst, "-s", out]) == EXIT_OK
        assert "accept" in capsys.readouterr().out

    def test_trace_is_written_on_request(self, tmp_path):
        inst = k4_instance(tmp_path)
        out = tmp_path / "solution.json"
        assert main(["solve", "-i", inst, "-o", str(out), "--trace"]) == EXIT_OK
        doc = json.loads(out.read_text())
        assert "trace" in doc and doc["trace"]

    def test_corrupted_solution_is_rejected(self, tmp_path, capsys):
        inst = k4_instance(tmp_path)
        out = tmp_path / "solution.json"
        main(["solve", "-i", inst, "-o", str(out)])
        doc = json.loads(out.read_text())
        doc["bags"][0], doc["bags"][1] = (
            doc["bags"][0] + doc["bags"][1],
            doc["bags"][0],
        )
        out.write_text(json.dumps(doc))
        assert main(["check", "-i", inst, "-s", str(out)]) == EXIT_REJECT
        assert "reject" in capsys.readouterr().out

    def test_check_escapes_ids_under_an_ascii_locale(self, tmp_path):
        H, part = k4_with_e_acute()
        T = {"aé", "bé", "cé"}
        inst = write_instance(tmp_path / "k4.json", H, part, T)
        bags, _ = solve(H, part, T)
        missing = BagSystem(tuple(b for b in bags.bags if "cé" not in b))
        sol = tmp_path / "solution.json"
        sol.write_text(emit_solution(missing), encoding="utf-8")
        proc = run_under_an_ascii_locale("check", "-i", inst, "-s", str(sol))
        assert proc.returncode == EXIT_REJECT, proc.stderr
        assert proc.stdout.splitlines() == [
            "reject: 2 bags for 3 classes",
            "reject: transversal edge 'c\\xe9' is in no bag",
        ]
        assert proc.stderr == ""

    def test_edgeless_instance_solves(self, tmp_path):
        inst = tmp_path / "edgeless.json"
        inst.write_text(
            json.dumps({"vertices": ["a"], "edges": [], "classes": [], "transversal": []})
        )
        out = tmp_path / "solution.json"
        assert main(["solve", "-i", str(inst), "-o", str(out)]) == EXIT_OK
        assert json.loads(out.read_text(encoding="utf-8")) == {"bags": []}

    def test_internal_assertion_exits_3(self, tmp_path, monkeypatch, capsys):
        inst = k4_instance(tmp_path)
        fault_on_k4(monkeypatch)
        out = tmp_path / "solution.json"
        assert main(["solve", "-i", inst, "-o", str(out)]) == EXIT_INTERNAL
        assert capsys.readouterr().err == "internal assertion failed: injected\n"
        assert not out.exists()

    def test_solve_requires_transversal(self, tmp_path):
        inst = k4_instance(tmp_path, with_transversal=False)
        out = str(tmp_path / "solution.json")
        assert main(["solve", "-i", inst, "-o", out]) == EXIT_USAGE

    def test_check_requires_transversal_before_reading_the_solution(
        self, tmp_path, capsys
    ):
        # a missing or malformed solution must not hide the instance's fault
        inst = k4_instance(tmp_path, with_transversal=False)
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        for solution in (str(tmp_path / "missing.json"), str(bad)):
            assert main(["check", "-i", inst, "-s", solution]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err == "instance has no transversal; add one or use `verify`\n"

    def test_invalid_instance_is_rejected(self, tmp_path):
        # two disjoint edges: the pair union is not connected
        doc = {
            "vertices": ["a", "b", "c", "d"],
            "edges": [
                {"id": "ab", "ends": ["a", "b"]},
                {"id": "cd", "ends": ["c", "d"]},
            ],
            "classes": [["ab"], ["cd"]],
            "transversal": ["ab", "cd"],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = str(tmp_path / "solution.json")
        assert main(["solve", "-i", str(path), "-o", out]) == EXIT_REJECT

    def test_malformed_json_is_a_usage_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["verify", "-i", str(path)]) == EXIT_USAGE

    def test_duplicate_edge_id_is_a_usage_error(self, tmp_path):
        doc = {
            "vertices": ["a", "b", "c"],
            "edges": [
                {"id": "e", "ends": ["a", "b"]},
                {"id": "e", "ends": ["b", "c"]},
            ],
            "classes": [["e"]],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "-i", str(path)]) == EXIT_USAGE

    def test_duplicate_ids_in_lists_are_a_usage_error(self, tmp_path, capsys):
        doc = {
            "vertices": ["x", "y", "z"],
            "edges": [{"id": "e", "ends": ["x", "y"]}, {"id": "g", "ends": ["y", "z"]}],
            "classes": [["e"], ["g"]],
            "transversal": ["e", "g", "e"],
        }
        inst = tmp_path / "dup.json"
        inst.write_text(json.dumps(doc))
        out = tmp_path / "solution.json"
        for argv in (
            ["verify", "-i", str(inst)],
            ["solve", "-i", str(inst), "-o", str(out)],
        ):
            assert main(argv) == EXIT_USAGE
            assert "transversal[2]: duplicate edge id 'e'" in capsys.readouterr().err
        good = k4_instance(tmp_path)
        out.write_text(json.dumps({"bags": [["e01", "e01"], ["e02"], ["e03"]]}))
        assert main(["check", "-i", good, "-s", str(out)]) == EXIT_USAGE
        assert "bags[0][1]: duplicate edge id 'e01'" in capsys.readouterr().err

    def test_non_utf8_document_is_a_usage_error(self, tmp_path, capsys):
        inst = k4_instance(tmp_path)
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"vertices": ["\xe9"]}')
        out = str(tmp_path / "solution.json")
        for argv in (
            ["verify", "-i", str(bad)],
            ["solve", "-i", str(bad), "-o", out],
            ["check", "-i", str(bad), "-s", out],
            ["check", "-i", inst, "-s", str(bad)],
        ):
            assert main(argv) == EXIT_USAGE
            assert f"{bad}: byte 15: not UTF-8" in capsys.readouterr().err

    def test_deep_nesting_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        assert main(["verify", "-i", str(path)]) == EXIT_USAGE
        assert f"{path}: arrays and objects nest too deeply" in capsys.readouterr().err

    def test_solution_that_is_not_an_object_is_a_usage_error(self, tmp_path, capsys):
        inst = k4_instance(tmp_path)
        out = tmp_path / "solution.json"
        out.write_text("[]")
        assert main(["check", "-i", inst, "-s", str(out)]) == EXIT_USAGE
        assert "$: solution document must be an object" in capsys.readouterr().err

    def test_schema_errors_name_the_file(self, tmp_path, capsys):
        inst = k4_instance(tmp_path)
        bad_inst = tmp_path / "bad-instance.json"
        bad_inst.write_text(json.dumps({"vertices": [], "edges": [], "classes": [5]}))
        bad_sol = tmp_path / "bad-solution.json"
        bad_sol.write_text(json.dumps({"bags": [["e"], 5]}))
        out = str(tmp_path / "sp.json")
        splice = ["generate", "splice", "--va", "0", "--vb", "0", "-o", out]
        for argv, message in (
            # check reads the instance first
            (["check", "-i", str(bad_inst), "-s", inst], f"{bad_inst}: classes[0]"),
            (["check", "-i", inst, "-s", str(bad_sol)], f"{bad_sol}: bags[1]"),
            (splice + ["-a", inst, "-b", str(bad_inst)], f"{bad_inst}: classes[0]"),
        ):
            assert main(argv) == EXIT_USAGE
            assert capsys.readouterr().err == (
                f"error: {message}: expected a list of strings\n"
            )

    def test_missing_file_is_a_usage_error(self, tmp_path):
        assert (
            main(["verify", "-i", str(tmp_path / "absent.json")]) == EXIT_USAGE
        )


class TestVerify:
    def test_accepts_valid(self, tmp_path, capsys):
        inst = k4_instance(tmp_path)
        assert main(["verify", "-i", inst]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("accept") == 3

    def test_rejects_bad_partition(self, tmp_path, capsys):
        H, _ = k4_seed()
        doc = json.loads(emit_instance(H, k4_seed()[1]))
        doc["classes"] = [["e01", "e02"], ["e03", "e12"], ["e13", "e23"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", "-i", str(path)]) == EXIT_REJECT
        out = capsys.readouterr().out
        assert "kempe: reject" in out
        assert "class 0 is not a matching" in out


class TestGenerate:
    def test_k4(self, tmp_path):
        out = tmp_path / "k4.json"
        assert main(["generate", "k4", "-o", str(out)]) == EXIT_OK
        assert main(["verify", "-i", str(out)]) == EXIT_OK

    def test_circulant(self, tmp_path):
        out = tmp_path / "c.json"
        code = main(
            ["generate", "circulant", "--m", "7", "--shifts", "0,1,2", "-o", str(out)]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert len(doc["vertices"]) == 14
        assert len(doc["edges"]) == 21

    def test_bad_circulant_params(self, tmp_path):
        out = str(tmp_path / "c.json")
        code = main(
            ["generate", "circulant", "--m", "6", "--shifts", "0,2", "-o", out]
        )
        assert code == EXIT_REJECT

    def test_non_integer_shift_is_a_usage_error(self, tmp_path, capsys):
        out = str(tmp_path / "c.json")
        with pytest.raises(SystemExit) as info:
            main(["generate", "circulant", "--m", "5", "--shifts", "0,x,2", "-o", out])
        assert info.value.code == EXIT_USAGE
        assert "expected comma-separated integers, got '0,x,2'" in capsys.readouterr().err

    def test_splice_and_delete(self, tmp_path):
        a = tmp_path / "a.json"
        main(["generate", "circulant", "--m", "5", "--shifts", "0,1,2", "-o", str(a)])
        b = tmp_path / "b.json"
        main(["generate", "k4", "-o", str(b)])
        sp = tmp_path / "sp.json"
        code = main(
            [
                "generate", "splice",
                "-a", str(a), "-b", str(b),
                "--va", "b0", "--vb", "0",
                "-o", str(sp),
            ]
        )
        assert code == EXIT_OK
        assert main(["verify", "-i", str(sp)]) == EXIT_OK
        dl = tmp_path / "dl.json"
        code = main(
            ["generate", "delete-vertex", "-i", str(sp), "--vertex", "b.1", "-o", str(dl)]
        )
        assert code == EXIT_OK
        assert main(["verify", "-i", str(dl)]) == EXIT_OK


EMPTY_CLASS = {
    "vertices": ["a", "b"],
    "edges": [{"id": "ab", "ends": ["a", "b"]}],
    "classes": [["ab"], []],
}


class TestOracleCommand:
    def test_empty_class_without_transversal(self, tmp_path, capsys):
        path = tmp_path / "empty-class.json"
        path.write_text(json.dumps(EMPTY_CLASS))
        assert main(["oracle", "-i", str(path)]) == EXIT_REJECT
        assert "class 1 is empty" in capsys.readouterr().err

    def test_feasible(self, tmp_path, capsys):
        inst = k4_instance(tmp_path)
        assert main(["oracle", "-i", inst]) == EXIT_OK
        assert "bags" in capsys.readouterr().out

    def test_infeasible(self, tmp_path, capsys):
        doc = {
            "vertices": ["a", "b", "c", "d"],
            "edges": [
                {"id": "ab", "ends": ["a", "b"]},
                {"id": "cd", "ends": ["c", "d"]},
            ],
            "classes": [["ab"], ["cd"]],
            "transversal": ["ab", "cd"],
        }
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", "-i", str(path)]) == EXIT_REJECT
        assert "infeasible" in capsys.readouterr().out

    def test_over_edge_cap(self, tmp_path):
        H, part = gen_circulant(5, (0, 1, 2))
        inst = write_instance(tmp_path / "c.json", H, part)
        assert main(["oracle", "-i", inst, "--max-edges", "12"]) == EXIT_REJECT

    def test_search_deeper_than_the_recursion_limit_is_a_usage_error(
        self, tmp_path, capsys
    ):
        H, part, T = deep_search_instance()
        inst = write_instance(tmp_path / "c.json", H, part, T)
        with recursion_limit(250):
            code = main(["oracle", "-i", inst, "--max-edges", "5000"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: search over 300 free edges")

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_non_positive_edge_cap_is_a_usage_error(self, tmp_path, capsys, cap):
        inst = k4_instance(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["oracle", "-i", inst, "--max-edges", cap])
        assert info.value.code == EXIT_USAGE
        assert "expected a positive integer" in capsys.readouterr().err


class TestLineGraphCommand:
    def test_writes_dot(self, tmp_path):
        inst = k4_instance(tmp_path)
        out = tmp_path / "L.dot"
        assert main(["linegraph", "-i", inst, "-o", str(out)]) == EXIT_OK
        assert out.read_text().startswith("graph L {")

    def test_output_is_utf8_under_an_ascii_locale(self, tmp_path):
        H, part = k4_with_e_acute()
        inst = write_instance(tmp_path / "k4.json", H, part)
        out = tmp_path / "L.dot"
        proc = run_under_an_ascii_locale("linegraph", "-i", inst, "-o", str(out))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert '"cé"' in out.read_bytes().decode("utf-8")


class TestCorpusRun:
    def test_all_good(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        H, part = k4_seed()
        write_instance(d / "k4.json", H, part)
        H2, part2 = gen_circulant(5, (0, 1, 2))
        T = frozenset(min(c) for c in part2.classes)
        write_instance(d / "circ.json", H2, part2, T)
        assert main(["corpus", "run", "--dir", str(d)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count(": ok") == 2

    def test_failure_is_reported(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        doc = {
            "vertices": ["a", "b", "c", "d"],
            "edges": [
                {"id": "ab", "ends": ["a", "b"]},
                {"id": "cd", "ends": ["c", "d"]},
            ],
            "classes": [["ab"], ["cd"]],
        }
        (d / "bad.json").write_text(json.dumps(doc))
        assert main(["corpus", "run", "--dir", str(d)]) == EXIT_REJECT
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "union of classes 0 and 1 is not connected" in out

    def test_transversal_with_two_edges_of_one_class_fails(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        H, part = k4_seed()
        cls = sorted(part.classes[0])
        T = {cls[0], cls[1]} | {min(c) for c in part.classes[2:]}
        write_instance(d / "k4.json", H, part, T)
        assert main(["corpus", "run", "--dir", str(d)]) == EXIT_REJECT
        out = capsys.readouterr().out
        assert "k4.json: FAIL" in out
        assert "class 0 is hit 2 times" in out

    def test_internal_assertion_exits_3_and_the_batch_runs_on(
        self, tmp_path, monkeypatch, capsys
    ):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "bad.json").write_text("{nope")
        for name, m in (("c5.json", 5), ("z7.json", 7)):
            write_instance(d / name, *gen_circulant(m, (0, 1, 2)))
        write_instance(d / "k4.json", *k4_seed())
        fault_on_k4(monkeypatch)
        assert main(["corpus", "run", "--dir", str(d)]) == EXIT_INTERNAL
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("bad.json: FAIL (line 1")
        assert lines[1:] == [
            "c5.json: ok (3 bags)",
            "k4.json: FAIL (internal assertion failed: injected)",
            "z7.json: ok (3 bags)",
        ]

    def test_malformed_documents_fail_one_by_one(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "deep.json").write_text("[" * 100000)
        (d / "empty-class.json").write_text(json.dumps(EMPTY_CLASS))
        (d / "latin1.json").write_bytes(b'{"vertices": ["\xe9"]}')
        H, part = k4_seed()
        write_instance(d / "k4.json", H, part)
        (d / "sub.json").mkdir()
        assert main(["corpus", "run", "--dir", str(d)]) == EXIT_REJECT
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("deep.json: FAIL (")
        assert "nest too deeply" in lines[0]
        assert lines[1].startswith("empty-class.json: FAIL (class 1 is empty")
        assert lines[2] == "k4.json: ok (3 bags)"
        assert lines[3].startswith("latin1.json: FAIL (")
        assert "byte 15: not UTF-8" in lines[3]
        assert lines[4].startswith("sub.json: FAIL (")
        assert "Is a directory" in lines[4]
        assert len(lines) == 5
        # each line names its file once, by name alone
        assert not any(str(d) in line for line in lines)

    def test_empty_directory(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["corpus", "run", "--dir", str(d)]) == EXIT_USAGE


class TestReadmeWalkThrough:
    @staticmethod
    def block(readme, section, lang):
        """The first fenced ``lang`` block under the ``## section`` heading."""
        text = readme.split(f"\n## {section}\n", 1)[1]
        return re.search(rf"```{lang}\n(.*?)```", text, re.S).group(1)

    def test_every_command_runs(self, tmp_path, monkeypatch, capsys):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        (tmp_path / "inst.json").write_text(self.block(readme, "Instance format", "json"))
        commands = [
            shlex.split(line)
            for line in self.block(readme, "CLI", "sh").splitlines()
            if line.startswith("kempe-minors ")
        ]
        assert len(commands) == 10
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert main(argv[1:]) == EXIT_OK, (argv, capsys.readouterr())
        for name in ("c7", "k4", "sp", "del", "sol"):
            assert (tmp_path / f"{name}.json").is_file()
        assert (tmp_path / "L.dot").is_file()


class TestEntryPoint:
    @pytest.mark.skipif(
        shutil.which("kempe-minors") is None,
        reason="console script not on PATH",
    )
    def test_installed_script(self, tmp_path):
        out = tmp_path / "k4.json"
        proc = subprocess.run(
            ["kempe-minors", "generate", "k4", "-o", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
