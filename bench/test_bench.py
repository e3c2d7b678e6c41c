"""The benchmark's own tests: metric names and units, and the answer checks.

    python3 -m pytest bench

They run the ``smoke`` workload, tiny instances that reach every layer.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(trace=0, wrap_main=None):
    result, _ = run.run_workload("smoke", 0, 1, trace, wrap_main)
    return result


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(trace, section):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "smoke", "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and f" {unit} " in line for line in out[:-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: spec[:2] for name, spec in LAYER_METRICS.items()
    }
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


def corrupt_once(argv_match, mutate):
    """A main that rewrites the JSON report of the first matching operation."""

    def wrap(main):
        done = []

        def corrupted(argv):
            code = main(argv)
            if not done and argv_match(argv):
                done.append(True)
                doc = json.loads(sys.stdout.getvalue())
                mutate(doc["results"])
                sys.stdout.seek(0)
                sys.stdout.truncate()
                print(json.dumps(doc))
            return code

        return corrupted

    return wrap


def wrong_answer(results):
    results["per_point"][0] = str(int(results["per_point"][0]) + 1)


def wrong_basis(results):
    results["standard_monomials"].reverse()


def broken_witness(results):
    results["hyperplanes"][0] = results["hyperplanes"][0].split(" = ")[0] + " = 99"


@pytest.mark.parametrize(
    "argv_match, mutate",
    [
        (lambda argv: argv[2:3] == ["vnk:3:1"], wrong_answer),
        (lambda argv: argv[0] == "gb", wrong_basis),
        (lambda argv: "--point" in argv, broken_witness),
    ],
)
def test_an_injected_fault_fails_exactly_one_operation(argv_match, mutate):
    clean = smoke()
    faulty = smoke(wrap_main=corrupt_once(argv_match, mutate))
    assert clean["failed"] == 0
    assert faulty["failed"] == 1
    assert faulty["attempted"] == clean["attempted"]


def test_modes_that_disagree_fail_the_later_operation():
    def mutate(results):
        results["per_point"][0] = "3"

    hyper = corrupt_once(lambda argv: argv[2:3] == ["ag:2:2"] and "hyperplanes" in argv, mutate)
    result = smoke(wrap_main=hyper)
    assert result["failed"] == 1


def test_witness_recheck_uses_plain_arithmetic():
    field, points = checks.Field("gf:3"), checks.family_points("ag:2:3")
    cover = {"excluded": ["0", "0"], "size": "4",
             "hyperplanes": ["x1 + x2 = 1", "x2 = 1", "x1 + 2*x2 = 2", "x1 + x2 = 2"]}
    assert checks.witness_errors(cover, field, points) == []
    cover["hyperplanes"][1] = "x2 = 0"
    assert checks.witness_errors(cover, field, points)
    rational = checks.Field("rational")
    normal, offset = checks.parse_hyperplane("x1 - 2/3*x2 = -5/2", rational, 2)
    assert normal == [1, checks.Fraction(-2, 3)] and offset == checks.Fraction(-5, 2)


def test_tail_latency_rule():
    assert run.tail_latency(list(range(19)))[0] == 18
    value, note = run.tail_latency(list(range(100)))
    assert value == 89 and note.startswith("p90")
    value, _ = run.tail_latency(list(range(24)))
    assert sum(x > value for x in range(24)) == 10


def test_a_missing_wrap_point_is_listed_and_the_run_goes_on(monkeypatch):
    import tracer

    renamed = tuple(
        (layer, module, "trace_family_gone" if layer == "cover.flats" else name)
        for layer, module, name in tracer.WRAP_POINTS
    )
    monkeypatch.setattr(tracer, "WRAP_POINTS", renamed)
    result, lines = run.run_workload("smoke", 0, 1, 1)
    assert result["correct"]
    assert result["metrics"]["cover.flats_calls"]["value"] == 0
    assert any("almostcover.cover.trace_family_gone" in line for line in lines)


def test_without_the_package_the_bench_fails_without_a_result(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (bench / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "families_all", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
