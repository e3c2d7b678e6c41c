import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from almostcover import cli, cover, vanishing
from almostcover.cli import SCALE_NOTE, main
from almostcover.families import FamilySpec
from almostcover.fields import QQ
from almostcover.linalg import PointSet
from almostcover.vanishing import GroebnerData
from almostcover.verify import SUITES

from test_cover import through_the_point

CUBE2_FILE = "field rational\ndim 2\npoint 0 0\npoint 0 1\npoint 1 0\npoint 1 1\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gb_family(capsys):
    code, out, _ = run(capsys, "gb", "--family", "vnk:2:1", "--no-timings")
    assert code == 0
    assert "x1*x2" in out and "x1^2 - x1" in out and "x2^2 - x2" in out
    assert "1, x2, x1" in out


def test_gb_json_structure(capsys):
    code, out, _ = run(capsys, "gb", "--family", "cube:1", "--json", "--no-timings")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "gb"
    assert doc["results"]["basis"] == ["x1^2 - x1"]
    assert doc["results"]["standard_monomials"] == ["1", "x1"]
    assert "timings" not in doc


def test_gb_from_file(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    path.write_text("field rational\ndim 2\npoint 0 0\npoint 1 2\npoint 2 1\n")
    code, out, _ = run(capsys, "gb", str(path), "--json", "--no-timings")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]["standard_monomials"]) == 3



class BasisBuilt(Exception):
    pass


def test_only_gb_builds_the_reduced_basis(monkeypatch, tmp_path, capsys):
    # the README's sample set, whose basis needs a tail rewritten; solve and
    # bound read the scan's rows only, so they print the same bytes when
    # the basis cannot be built
    path = tmp_path / "pts.txt"
    path.write_text("field rational\ndim 2\npoint 1 2/3\npoint 0 -1\npoint 2 0\n")
    calls = [
        ("solve", str(path), "--all"),
        ("solve", "--family", "jnq:3:3", "--all"),
        ("bound", str(path), "--method", "all"),
        ("bound", "--family", "cube:4", "--method", "all", "--point", "3"),
    ]
    expected = [run(capsys, *argv, "--json", "--no-timings") for argv in calls]
    assert all(code == 0 for code, _, _ in expected)

    def unbuildable(*args):
        raise BasisBuilt

    monkeypatch.setattr(vanishing, "_reduce_tag", unbuildable)
    assert [run(capsys, *argv, "--json", "--no-timings") for argv in calls] == expected
    with pytest.raises(BasisBuilt):
        main(["gb", str(path), "--no-timings"])

def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "solve", "--family", "cube:3", "--point", "0", "--json", "--no-timings")
    _, second, _ = run(capsys, "solve", "--family", "cube:3", "--point", "0", "--json", "--no-timings")
    assert first == second


def test_bound_count(capsys):
    code, out, _ = run(
        capsys, "bound", "--family", "jnq:2:3", "--method", "count", "--json", "--no-timings"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["count"]["value"] == "2"


def test_bound_cube_method(capsys):
    code, out, _ = run(
        capsys, "bound", "--family", "cube:4", "--method", "cube", "--json", "--no-timings"
    )
    assert code == 0
    assert json.loads(out)["results"]["cube_count"]["value"] == "4"


def test_bound_cert_with_point(capsys):
    code, out, _ = run(
        capsys,
        "bound", "--family", "cube:2", "--method", "cert", "--point", "0",
        "--json", "--no-timings",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["certificate"]["value"] == "2"
    assert doc["results"]["certificate"]["certificate_point"] == ["0", "0"]


def test_bound_all_reports_chain(capsys):
    code, out, _ = run(
        capsys, "bound", "--family", "cube:3", "--method", "all", "--json", "--no-timings"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["ordering_chain"]["holds"] is True
    assert "cor_e" in doc["results"]


def test_bound_point_chain_ends_at_the_set_certificate(capsys):
    # the point's degree (1) sits below the counting bounds (2); the chain
    # bounds AC(V), so it ends at the set's certificate instead
    for spec, point in (("vnkt:3:1:1,2", "3"), ("vnkt:4:1:1,2,3", "4")):
        code, out, err = run(
            capsys, "bound", "--family", spec, "--point", point, "--json", "--no-timings"
        )
        assert code == 0 and err == ""
        results = json.loads(out)["results"]
        assert results["certificate"]["value"] == "1"
        chain = results["ordering_chain"]
        assert chain["holds"] is True
        assert chain["values"][-1] == results["certificate"]["details"]["max_sm_degree"] == "2"


def test_bound_cube_rejects_non_01(capsys):
    code, _, err = run(capsys, "bound", "--family", "jnq:2:3", "--method", "cube")
    assert code == 2
    assert "0-1" in err


def test_bound_all_skips_cube_on_non_01(capsys):
    code, out, _ = run(capsys, "bound", "--family", "jnq:2:3", "--json", "--no-timings")
    assert code == 0
    results = json.loads(out)["results"]
    assert "cube_count" not in results
    assert results["ordering_chain"]["holds"] is True


def test_bound_all_agrees_with_the_single_methods(capsys):
    singles = {"count": "count", "cube_count": "cube", "certificate": "cert"}
    for spec, *point in (("cube:3",), ("jnq:2:3",), ("vnkt:3:1:1,2", "--point", "3")):
        code, out, _ = run(
            capsys, "bound", "--family", spec, *point, "--method", "all", "--json", "--no-timings"
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert ("cube_count" in results) == (spec != "jnq:2:3")
        for key, method in singles.items():
            if key not in results:
                continue
            code, out, _ = run(
                capsys,
                "bound", "--family", spec, "--method", method, *(point if method == "cert" else ()),
                "--json", "--no-timings",
            )
            assert code == 0
            assert json.loads(out)["results"] == {key: results[key]}


def test_solve_single_point(capsys):
    code, out, _ = run(
        capsys, "solve", "--family", "cube:3", "--point", "0", "--json", "--no-timings"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["size"] == "3"
    assert doc["results"]["optimal"] is True
    assert len(doc["results"]["hyperplanes"]) == 3


def test_solve_all_ag(capsys):
    code, out, _ = run(
        capsys, "solve", "--family", "ag:2:3", "--all", "--json", "--no-timings"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["ac_max"] == "4" and doc["results"]["ac_min"] == "4"


def test_solve_all_perm_with_symmetry(capsys):
    code, out, _ = run(
        capsys,
        "solve", "--family", "perm:3", "--all", "--symmetry", "--json", "--no-timings",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["ac_max"] == "3"
    assert doc["results"]["transitive"] is True
    assert len(doc["results"]["covers"]) == 1


def test_solve_file_input(tmp_path, capsys):
    path = tmp_path / "cube2.txt"
    path.write_text(CUBE2_FILE)
    code, out, _ = run(capsys, "solve", str(path), "--point", "0", "--json", "--no-timings")
    assert code == 0
    assert json.loads(out)["results"]["size"] == "2"


def test_single_point_file_meets_the_mode_checks(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("field rational\ndim 2\npoint 1 2/3\n")
    for argv in (("--point", "0"), ("--all",)):
        code, out, err = run(capsys, "solve", str(path), *argv, "--mode", "hyperplanes")
        assert code == 2 and out == ""
        assert err == "error: exhaustive hyperplane enumeration needs a finite field\n"


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("field rational\ndim 2\npoint 1\n")
    code, _, err = run(capsys, "gb", str(path))
    assert code == 2
    assert "line 3" in err


def test_missing_input_exit_code(capsys):
    code, _, err = run(capsys, "gb")
    assert code == 2


def test_out_of_memory_exits_3_with_one_error_line(monkeypatch, capsys):
    def exhausted(V):
        raise MemoryError

    monkeypatch.setattr(cover, "_coatom_masks", exhausted)
    for argv in (("--point", "0"), ("--all",)):
        code, out, err = run(capsys, "solve", "--family", "cube:3", *argv)
        assert code == 3
        assert out == ""
        assert err.splitlines() == [f"error: out of memory. {SCALE_NOTE}"]


def test_solver_invariants_exit_3_with_one_error_line(monkeypatch, capsys):
    breaks = (
        (cover, "realize_trace", through_the_point, "solver produced an invalid cover"),
        (GroebnerData, "separating_degree", lambda self, point: 99,
         "solver undercut the certificate lower bound"),
    )
    for owner, name, broken, message in breaks:
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, broken)
            for argv in (("--point", "0"), ("--all",)):
                code, out, err = run(capsys, "solve", "--family", "cube:3", *argv)
                assert code == 3 and out == ""
                assert err.splitlines() == [f"internal error: {message}"]


def test_a_program_type_error_exits_3_with_one_error_line(monkeypatch, capsys):
    # no command-line input raises TypeError, so one is a fault of the program
    def faulty(V):
        raise TypeError("faulty coatom list")

    monkeypatch.setattr(cover, "_coatom_masks", faulty)
    for argv in (("--point", "0"), ("--all",)):
        code, out, err = run(capsys, "solve", "--family", "cube:3", *argv)
        assert code == 3 and out == ""
        assert err.splitlines() == ["internal error: faulty coatom list"]


def test_a_falling_bound_chain_exits_3_before_any_output(monkeypatch, capsys):
    real = cli.lower_bounds

    def falling(V, point=None):
        reports, chain = real(V, point)
        return reports, [*chain[:-1], chain[-2] - 1]

    monkeypatch.setattr(cli, "lower_bounds", falling)
    for extra in ((), ("--json",)):
        code, out, err = run(capsys, "bound", "--family", "cube:3", "--method", "all", *extra)
        assert code == 3 and out == ""
        assert err.splitlines() == ["internal error: bound ordering chain violated"]


def test_bad_family_exit_code(capsys):
    code, _, err = run(capsys, "gb", "--family", "vnk:2:9")
    assert code == 2


def test_both_inputs_rejected(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    path.write_text(CUBE2_FILE)
    code, _, err = run(capsys, "gb", str(path), "--family", "cube:2")
    assert code == 2


def test_unknown_suite_exit_code(capsys):
    code, _, err = run(capsys, "verify", "nonsuite")
    assert code == 2
    assert "unknown suite" in err


def test_verify_suite_passes(capsys):
    code, out, _ = run(capsys, "verify", "binomial", "--max-n", "10", "--no-timings")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "szw", "--max-n", "3", "--json", "--no-timings"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["failed"] == 0
    assert all(c["passed"] for c in doc["results"]["checks"])


def test_verify_max_n_caps_the_jnq_grid(capsys):
    for suite in ("main2", "sharpness"):
        code, out, _ = run(capsys, "verify", suite, "--max-n", "2", "--json", "--no-timings")
        assert code == 0
        names = [c["name"] for c in json.loads(out)["results"]["checks"]]
        assert any("jnq:2:" in name for name in names)
        assert not any("jnq:3:" in name for name in names)


def test_verify_max_n_caps_every_family_suite(capsys):
    # binomial's checks name the grid's n, not a family
    for suite in (name for name in SUITES if name != "binomial"):
        code, out, _ = run(capsys, "verify", suite, "--max-n", "2", "--json", "--no-timings")
        assert code == 0, suite
        names = [c["name"] for c in json.loads(out)["results"]["checks"]]
        # each name ends in a family spec kind:n[:...]
        assert names and all(FamilySpec.parse(name.split()[-1]).n <= 2 for name in names), suite


def test_verify_selecting_no_checks_is_a_usage_error(capsys):
    for argv in (
        ("main", "--max-n", "0"),
        ("szw", "--max-n", "-1"),
        ("main2", "--max-n", "1"),
        ("main4", "--max-n", "1"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_solve_rejects_flags_it_would_ignore(capsys):
    for argv in (("--all", "--point", "0"), ("--point", "0", "--symmetry")):
        code, out, err = run(capsys, "solve", "--family", "cube:2", *argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_the_shared_parser_keeps_no_state_between_calls(monkeypatch, capsys):
    solve = ("solve", "--family", "cube:2")
    sequence = [
        (*solve, "--point", "x"),  # a usage error
        ("solve", "--help"),
        (*solve, "--point", "99"),  # a handler ValueError
        (*solve, "--point", "0", "--json", "--no-timings"),
        (*solve, "--point", "0", "--json", "--no-timings"),
    ]
    alone = []
    for argv in sequence:
        monkeypatch.setattr(cli, "_parser", None)
        alone.append(run(capsys, *argv))
    assert [code for code, _, _ in alone] == [2, 0, 2, 0, 0]
    builds = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build_parser())
    monkeypatch.setattr(cli, "_parser", None)
    assert [run(capsys, *argv) for argv in sequence] == alone
    assert len(builds) == 1


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # -S: site itself may import typing; the baseline imports only the
    # standard modules the package imports, so a Python release whose
    # standard library loads inspect or typing does not fail this test
    heavy = ("dataclasses", "inspect", "typing")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def loaded(imports):
        probe = f"import sys, {imports}; print(*(m for m in {heavy!r} if m in sys.modules))"
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        return set(done.stdout.split())

    baseline = loaded("argparse, json, fractions, heapq, itertools, functools, math, operator, re")
    found = loaded("almostcover.cli")
    assert "dataclasses" not in found and found <= baseline


# seven planar points whose minimum cover (3) needs actual branching, so a
# one-node budget forces the greedy fallback
BRANCHY_FILE = (
    "field rational\ndim 2\n"
    "point -2 0\npoint -1 2\npoint -1 -2\npoint -2 2\n"
    "point -1 1\npoint 1 -2\npoint 0 -2\n"
)


def test_budget_exhaustion_warns_but_exits_zero(tmp_path, capsys):
    path = tmp_path / "branchy.txt"
    path.write_text(BRANCHY_FILE)
    code, out, _ = run(
        capsys, "solve", str(path), "--point", "2", "--budget", "1",
        "--json", "--no-timings",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["optimal"] is False
    assert "warning" in doc
    # unlimited budget settles the exact value below the greedy answer
    code, out, _ = run(
        capsys, "solve", str(path), "--point", "2", "--budget", "0",
        "--json", "--no-timings",
    )
    doc_exact = json.loads(out)
    assert doc_exact["results"]["optimal"] is True
    assert int(doc_exact["results"]["size"]) < int(doc["results"]["size"])


def test_negative_budget_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "branchy.txt"
    path.write_text(BRANCHY_FILE)
    for extra in (("--point", "2"), ("--all",)):
        code, out, err = run(capsys, "solve", str(path), *extra, "--budget", "-5")
        assert code == 2 and out == ""
        assert "--budget" in err


# Three random 24-point planar sets whose search needs the most nodes when
# pruned by the largest-trace ratio alone (224,319, 186,111 and 136,666).
# Their reports come from that search; pruning harder must not change the
# optimum or the witness cover it picks.  HARD_SET_NODES holds the nodes of
# the search at point 0 and, above them, of the search pruned by the top-t
# bound (the t largest live traces must cover U) in place of the weight bound.
HARD_SETS = (
    (
        (
            (3, 0), (4, 6), (0, 7), (4, 4), (8, 2), (2, 7), (7, 8), (5, 8), (6, 0), (8, 3), (8, 5), (1, 4),
            (1, 3), (3, 3), (5, 6), (3, 6), (7, 7), (6, 6), (5, 0), (5, 3), (8, 6), (4, 0), (8, 7), (1, 6),
        ),
        """\
{
  "schema": 1,
  "command": "solve",
  "input": {
    "file": @FILE@
  },
  "field": "rational",
  "dim": 2,
  "results": {
    "excluded": [
      "3",
      "0"
    ],
    "size": "8",
    "hyperplanes": [
      "x1 = 4",
      "x1 - 3/2*x2 = -5",
      "x2 = 6",
      "x1 + 1/6*x2 = 5",
      "x2 = 7",
      "x1 + 1/2*x2 = 9",
      "x1 - 2/5*x2 = 6",
      "x2 = 3"
    ],
    "lower_bound_used": "6",
    "optimal": true
  },
  "optimal": true
}
""",
    ),
    (
        (
            (2, 0), (5, 3), (0, 0), (4, 5), (5, 8), (3, 1), (4, 4), (0, 8), (3, 5), (7, 1), (2, 8), (7, 2),
            (8, 6), (2, 3), (3, 8), (2, 4), (7, 0), (1, 1), (8, 7), (6, 8), (4, 2), (3, 3), (2, 2), (4, 1),
        ),
        """\
{
  "schema": 1,
  "command": "solve",
  "input": {
    "file": @FILE@
  },
  "field": "rational",
  "dim": 2,
  "results": {
    "excluded": [
      "2",
      "0"
    ],
    "size": "8",
    "hyperplanes": [
      "x1 + x2 = 8",
      "x1 + 2/3*x2 = 7",
      "x1 - x2 = 0",
      "x1 = 4",
      "x1 - 2*x2 = -6",
      "x2 = 8",
      "x1 - 4*x2 = -1",
      "x1 - 2*x2 = -4"
    ],
    "lower_bound_used": "6",
    "optimal": true
  },
  "optimal": true
}
""",
    ),
    (
        (
            (4, 5), (0, 4), (4, 2), (0, 0), (1, 8), (8, 8), (8, 6), (2, 3), (4, 1), (2, 7), (3, 3), (4, 0),
            (6, 8), (7, 2), (1, 2), (1, 4), (8, 2), (8, 3), (8, 7), (5, 6), (1, 5), (0, 3), (3, 7), (5, 1),
        ),
        """\
{
  "schema": 1,
  "command": "solve",
  "input": {
    "file": @FILE@
  },
  "field": "rational",
  "dim": 2,
  "results": {
    "excluded": [
      "4",
      "5"
    ],
    "size": "8",
    "hyperplanes": [
      "x1 = 0",
      "x1 + x2 = 6",
      "x1 = 1",
      "x1 + 2*x2 = 17",
      "x1 = 8",
      "x1 + x2 = 5",
      "x1 + 2/7*x2 = 4",
      "x1 + 1/6*x2 = 22/3"
    ],
    "lower_bound_used": "6",
    "optimal": true
  },
  "optimal": true
}
""",
    ),
)


HARD_SET_NODES = ((72, 1325), (36, 229), (7, 308))


def test_hardest_random_sets_need_few_search_nodes():
    for (points, _), (nodes, top_t_nodes) in zip(HARD_SETS, HARD_SET_NODES, strict=True):
        V = PointSet.from_ints(QQ, points)
        assert cover.min_almost_cover(V, V.points[0]).node_count == nodes <= top_t_nodes


def test_hardest_random_sets_keep_their_witness_covers(tmp_path, capsys):
    for k, (points, report) in enumerate(HARD_SETS):
        path = tmp_path / f"hard{k}.txt"
        path.write_text(
            "field rational\ndim 2\n" + "".join(f"point {x} {y}\n" for x, y in points)
        )
        code, out, _ = run(capsys, "solve", str(path), "--point", "0", "--json", "--no-timings")
        assert code == 0
        assert out == report.replace("@FILE@", json.dumps(str(path)))


class TagsBuilt(Exception):
    pass


def test_solve_and_bound_never_build_the_tags(monkeypatch, tmp_path, capsys):
    # the scan keeps value rows only; the separating degrees read those, so
    # a gap set's solve and bound print the same bytes when the tags cannot
    # be replayed
    points, _ = HARD_SETS[0]
    path = tmp_path / "hard.txt"
    path.write_text("field rational\ndim 2\n" + "".join(f"point {x} {y}\n" for x, y in points))
    calls = [
        ("solve", str(path), "--point", "0"),
        ("bound", str(path), "--method", "cert", "--point", "0"),
        ("bound", str(path), "--method", "all"),
    ]
    expected = [run(capsys, *argv, "--json", "--no-timings") for argv in calls]
    assert all(code == 0 for code, _, _ in expected)

    def unbuildable(self):
        raise TagsBuilt

    monkeypatch.setattr(GroebnerData, "_replay", unbuildable)
    assert [run(capsys, *argv, "--json", "--no-timings") for argv in calls] == expected
    with pytest.raises(TagsBuilt):
        main(["gb", str(path), "--no-timings"])


def test_bound_point_needs_a_per_point_method(capsys):
    for method in ("count", "cube"):
        code, out, err = run(capsys, "bound", "--family", "cube:4", "--method", method, "--point", "3")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")
    for method in ("cert", "all"):
        code, out, _ = run(
            capsys, "bound", "--family", "cube:4", "--method", method, "--point", "3",
            "--json", "--no-timings",
        )
        assert code == 0
        assert json.loads(out)["results"]["certificate"]["certificate_point"] == ["0", "0", "1", "1"]


def test_readme_library_example_prints_what_its_comments_say(capsys):
    # each print line of the Library block ends in a comment that starts
    # with what it prints
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    comments = [re.fullmatch(r"print\(.*\)\s+# (.*)", line) for line in prints]
    assert prints and all(comments)
    exec(block, {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(comments)
    for out, comment in zip(printed, comments):
        assert comment[1].startswith(out)


def test_the_console_script_runs_main(capsys):
    # the almostcover command that pyproject.toml installs
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    module, name = re.search(r'^almostcover = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    entry = getattr(importlib.import_module(module), name)
    assert entry(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: almostcover ")
