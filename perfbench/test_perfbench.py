"""Tests of the benchmark itself (not of coslie).

    PYTHONPATH=src python -m pytest perfbench -q

They check that inputs are deterministic, that each oracle rejects a wrong
answer, that tracing changes no output, that traced counts repeat exactly,
and that BENCHMARK.json names what the benchmark prints.  A few run the
benchmark end to end, so the file takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import alg
import gen
import oracle
import tracing
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def run_op(op, workdir):
    worker.write_files([op], workdir)
    rc, out, _, error = worker.execute(op, workdir, in_process=True)
    assert error is None, error
    return rc, out


def first(workload, kind, seed=3):
    return next(op for op in gen.Stream(workload, seed).round(0) if op.kind == kind)


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    def inputs(seed):
        stream = gen.Stream(workload, seed)
        return [(op.name, op.argv, op.files, op.facts) for r in range(2) for op in stream.round(r)]

    assert inputs(7) == inputs(7)
    if workload != "catalog":  # its input is the built-in catalog
        assert inputs(7) != inputs(8)


@pytest.mark.parametrize("workload", ["exists", "structures", "symbolic"])
def test_inputs_are_distinct_within_a_run(workload):
    stream = gen.Stream(workload, 11)
    texts = [t for r in range(4) for op in stream.round(r) for t in op.files.values()]
    assert len(texts) == len(set(texts))


def test_generated_structures_are_cosymplectic():
    for op in gen.Stream("structures", 5).round(0):
        if "structure" in op.ref:
            assert alg.is_cosymplectic(op.ref["structure"])
            text = next(iter(op.files.values()))
            assert alg.instantiate(alg.parse_linear_alg(text), {}) == op.ref["structure"]


# ---------------------------------------------------------------------------
# oracles accept right answers and reject injected wrong ones


def test_exists_oracle_rejects_a_flipped_answer(workdir):
    for kind in ("no-h7-sparse", "yes-d7-dense"):
        op = first("exists", kind)
        rc, out = run_op(op, workdir)
        assert oracle.check(op, rc, out) is None
        doc = json.loads(out)
        doc["result"]["exists"] = not doc["result"]["exists"]
        assert oracle.check(op, 1 - rc, json.dumps(doc)) is not None


def test_exists_oracle_rejects_a_bad_witness(workdir):
    op = first("exists", "yes-d7-dense")
    rc, out = run_op(op, workdir)
    doc = json.loads(out)
    doc["result"]["witness"] = {k: "0" for k in doc["result"]["witness"]}
    assert oracle.check(op, rc, json.dumps(doc)) is not None


@pytest.mark.parametrize("workload,kind", [("structures", "lsa"), ("symbolic", "sym-lsa")])
def test_lsa_oracle_rejects_a_perturbed_product_entry(workdir, workload, kind):
    op = first(workload, kind)
    rc, out = run_op(op, workdir)
    assert oracle.check(op, rc, out) is None
    doc = json.loads(out)
    entry = doc["result"]["products"][0]
    entry["value"] += " + e1"
    assert oracle.check(op, rc, json.dumps(doc)) is not None


@pytest.mark.parametrize("kind", ["validate", "reeb", "biinv", "extend"])
def test_structure_oracles_accept_the_program(workdir, kind):
    op = first("structures", kind)
    rc, out = run_op(op, workdir)
    assert oracle.check(op, rc, out) is None


def test_reeb_oracle_rejects_a_wrong_vector(workdir):
    op = first("structures", "reeb")
    rc, out = run_op(op, workdir)
    doc = json.loads(out)
    doc["result"]["reeb"] = doc["result"]["reeb"] + " + e1"
    assert oracle.check(op, rc, json.dumps(doc)) is not None


def test_catalog_oracle_rejects_a_changed_pass_set(workdir):
    op = first("catalog", "catalog")
    rc, out = run_op(op, workdir)
    assert oracle.check(op, rc, out) is None
    doc = json.loads(out)
    doc["checks"][0]["results"][0]["pass"] = not doc["checks"][0]["results"][0]["pass"]
    assert oracle.check(op, rc, json.dumps(doc)) is not None
    doc = json.loads(out)
    del doc["checks"][-1]["results"][-1]
    assert oracle.check(op, rc, json.dumps(doc)) is not None


# alpha's pivot coefficient carries the free symbol (g_{2.1}+g_1, A_{5,1})
ALPHA_PIVOT_FREE = [
    "dim 3\nbracket 1 2 : 1 1\nalpha : 1*a2 2 -1/2 3\nomega 1 2 : 2\nomega 2 3 : -2\n",
    "dim 5\nbracket 3 5 : 1 1\nbracket 4 5 : 1 2\nalpha : 1*a3 3 1/2 5\nomega 1 4 : 2\n"
    "omega 2 3 : 2\nomega 2 4 : -1\nomega 2 5 : -1/2\nomega 3 4 : -1/2\nomega 3 5 : -2\n"
    "omega 4 5 : 1/2\n",
]


@pytest.mark.xfail(raises=(AttributeError, TypeError), strict=True,
                   reason="the kernel reduction divides by alpha's symbolic pivot, and "
                          "solve_poly/det_poly then meet RatFn entries they cannot divide")
@pytest.mark.parametrize("text", ALPHA_PIVOT_FREE)
def test_free_symbol_in_alpha_breaks_lsa(workdir, text):
    # The symbolic workload leaves free only symbols outside alpha because
    # of this defect; once it is fixed this test passes and fails as XPASS.
    (workdir / "g.alg").write_text(text)
    from coslie import cli

    assert cli.main(["lsa", str(workdir / "g.alg"), "--json"]) == 0


# ---------------------------------------------------------------------------
# tracing


@pytest.mark.parametrize("workload", ["exists", "structures", "symbolic"])
def test_traced_outputs_equal_untraced_outputs(workdir, workload):
    ops = gen.Stream(workload, 2).round(0)
    worker.write_files(ops, workdir)
    tracer = tracing.Tracer()
    for op in ops:
        plain = worker.execute(op, workdir, in_process=True)
        tracer.install()
        try:
            traced = worker.execute(op, workdir, in_process=True)
        finally:
            tracer.uninstall()
        assert plain[3] is None and traced[3] is None
        assert (traced[0], traced[1]) == (plain[0], plain[1])
    assert tracer.spans


def test_uninstall_restores_every_binding():
    import coslie
    from coslie import cli, cosymplectic

    before = (cli.validate, cosymplectic.validate, coslie.validate,
              cosymplectic.CosymplecticStructure.make)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.validate is not before[0] and coslie.validate is not before[2]
    tracer.uninstall()
    assert (cli.validate, cosymplectic.validate, coslie.validate,
            cosymplectic.CosymplecticStructure.make) == before


def run_benchmark(cwd, *args):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_traced_counts_repeat_exactly():
    def counts():
        proc = run_benchmark(ROOT, "--workload", "structures", "--seed", "4",
                             "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"]
        return {k: v["value"] for k, v in result["metrics"].items()
                if v["unit"] in ("count", "bytes")}

    first_counts = counts()
    assert first_counts["cli.main.calls"] > 0
    assert counts() == first_counts


# ---------------------------------------------------------------------------
# the command and BENCHMARK.json


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m[0] for m in tracing.METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [m[1] for m in tracing.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    proc = run_benchmark(ROOT, "--workload", "structures", "--seed", "1", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "--workload", "exists", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
