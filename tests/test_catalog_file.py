"""The catalog's data: every field that the package reads, pinned in
tests/data/catalog.json, and the benchmark's snapshot of it,
perfbench/data/catalog.alg, checked against the package."""

from __future__ import annotations

import json
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest

from coslie import catalog as cat
from coslie import scalars as sc
from coslie.algfile import format_algebra, parse_catalog
from coslie.cli import main
from coslie.errors import AlgFileError
from coslie.exterior import OneForm, TwoForm
from coslie.lie_core import LieAlgebra, LinearMap

import pairwise as pw

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "catalog.json"
SNAPSHOT = ROOT / "perfbench" / "data" / "catalog.alg"


def show(x):
    """A JSON rendering of a catalog field by the ``str`` of its scalars;
    dicts are listed in sorted key order."""
    if isinstance(x, (OneForm, TwoForm)):
        return show(x.coeffs)
    if isinstance(x, LieAlgebra):
        return show(x.brackets)
    if isinstance(x, LinearMap):
        return show(x.matrix)
    if isinstance(x, dict):
        return {str(k): show(v) for k, v in sorted(x.items())}
    if isinstance(x, (tuple, list)):
        return [show(v) for v in x]
    if isinstance(x, frozenset):
        return sorted(x)
    return None if x is None else str(x)


def show_entry(e) -> dict:
    out = {
        "kind": e.kind,
        "dim": e.dim,
        "aliases": show(e.aliases),
        "param_names": e.param_names(),
        "algebra": None if e.kind == "heisenberg" else show(e.algebra()),
        "alpha": show(e.alpha),
        "omega": show(e.omega),
        "nondeg": show(e.nondeg),
        "sample": show(e.sample),
        "known_deviations": show(e.known_deviations),
    }
    if e.kind == "family":
        out["struct_params"] = show(e.struct_params)
    out["normal_forms"] = [
        {
            "label": nf.label,
            "alpha": show(nf.alpha),
            "omega": show(nf.omega),
            "expected_reeb": show(nf.expected_reeb),
            "witness_member": show(nf.witness_member),
            "witness_map": show(nf.witness_map),
            "witness_lam": show(nf.witness_lam),
        }
        for nf in e.normal_forms
    ]
    if e.lsa is not None:
        out["lsa"] = {
            "alpha": show(e.lsa.alpha),
            "omega": show(e.lsa.omega),
            "table": {str(ij): show(comps) for ij, comps in sorted(e.lsa.table.items())},
            "note": e.lsa.note,
        }
    return out


def _stdout(capsys, argv) -> dict:
    code = main(argv)
    return {"code": code, "out": capsys.readouterr().out}


def render(capsys) -> str:
    names = cat.list_entries()
    every = [n for name in names for n in (name, *cat.get_entry(name).aliases)]
    at_sample = {}
    for name in names:
        sample = cat.get_entry(name).sample
        if sample:
            bound = ",".join(f"{k}={v}" for k, v in sample.items())
            at_sample[name] = _stdout(capsys, ["catalog", "export", name, "--params", bound])
    out = {
        "list": _stdout(capsys, ["catalog", "list"]),
        "export": {n: _stdout(capsys, ["catalog", "export", n]) for n in every},
        "export_at_sample": at_sample,
        "entries": {name: show_entry(cat.get_entry(name)) for name in names},
        "aff": {
            "alpha": show(cat.AFF_ALPHA),
            "omega": show(cat.AFF_OMEGA),
            **{f"corrected@{lam}": show(cat.aff_corrected_algebra(F(lam))) for lam in (0, 1, 2)},
        },
    }
    return json.dumps(out, indent=2, ensure_ascii=False) + "\n"


def test_catalog_fields_and_exports_match_golden_file(capsys):
    # tests/data/catalog.json is the committed listing, every export and a
    # rendering of every entry field; a change to the catalog's data must
    # update it on purpose.
    assert render(capsys).encode("utf-8") == GOLDEN.read_bytes()


# ---------------------------------------------------------------------------
# The benchmark's snapshot


def snapshot_blocks() -> dict:
    """name -> (its '# nondeg' comment, its .alg text) for each block."""
    blocks = {}
    for chunk in SNAPSHOT.read_text(encoding="utf-8").split("# entry ")[1:]:
        name, nondeg, text = chunk.split("\n", 2)
        assert nondeg.startswith("# nondeg "), name
        blocks[name] = (nondeg[len("# nondeg "):], text.rstrip("\n") + "\n")
    return blocks


def symbolic_corrected_aff() -> LieAlgebra:
    """The corrected aff(2,R) extension with lam left free; its brackets
    are affine in lam, so the values at 0 and 1 determine them."""
    at0, at1 = cat.aff_corrected_algebra(F(0)), cat.aff_corrected_algebra(F(1))
    lam = sc.Poly.var("lam")
    L = LieAlgebra(
        7,
        {
            ij: tuple(
                a + (b - a) * lam
                for a, b in zip(pw.bracket_basis(at0, *ij), pw.bracket_basis(at1, *ij))
            )
            for ij in set(at0.brackets) | set(at1.brackets)
        },
    )
    assert L.subs({"lam": F(2)}) == cat.aff_corrected_algebra(F(2))
    return L


def test_benchmark_snapshot_matches_the_package():
    blocks = snapshot_blocks()
    names = [n for n in cat.list_entries() if cat.get_entry(n).kind not in ("heisenberg", "aff")]
    assert sorted(blocks) == sorted(names + ["aff(2,R)-corrected"])
    for name in names:
        entry = cat.get_entry(name)
        nondeg, text = blocks[name]
        assert text == cat.export_entry(name), name
        assert nondeg == ("-" if entry.nondeg is None else str(entry.nondeg)), name
    nondeg, text = blocks["aff(2,R)-corrected"]
    assert nondeg == "-"
    assert text == format_algebra(symbolic_corrected_aff(), cat.AFF_ALPHA, cat.AFF_OMEGA)


# ---------------------------------------------------------------------------
# The file and its grammar


def test_the_catalog_file_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "catalog.alg" in config["tool"]["setuptools"]["package-data"]["coslie"]
    assert resources.files("coslie").joinpath("catalog.alg").is_file()


def test_the_catalog_file_is_read_once():
    for name in cat.list_entries():
        cat.export_entry(name, {"n": 1} if name == "Heisenberg" else None)
    assert cat.AFF_ALPHA is cat.get_entry("aff(2,R)x<e7>").alpha
    cat.aff_corrected_algebra(F(1))
    assert cat._registry.cache_info().misses == 1


CATALOG = """\
# comments and blank lines may come before the first entry

entry family g34 g_{3.4}^{-1}  # a3*a12 != 0
dim 3
bracket 1 3 : 1 1
bracket 2 3 : -1 2
alpha : a3 3
omega 1 2 : a12
nondeg = a3*(a12 - 2*a3^2)/2
sample = a3=1, a12=-1/2
deviation = nondeg z2_span
normal normal-1
  alpha : lam 3
  omega 1 2 : 1
  reeb : 1/lam 3
  member = a3=2, a12=2
  map 2 : 1/2 2
  witness = -1
lsa
  alpha : 1 3
  omega 1 2 : 1
  product 3 1 : -1/lam^2 1
  note = as   printed
"""


def test_parse_catalog_reads_entries_and_sections():
    [entry] = parse_catalog(CATALOG)
    assert entry.head == ["family", "g34", "g_{3.4}^{-1}"]
    assert entry.dim == 3
    a3, a12, lam = (sc.Poly.var(x) for x in ("a3", "a12", "lam"))
    assert entry.lines["nondeg"][()] == (a3 * a12 - 2 * a3 ** 3) / 2
    assert entry.lines["sample"][()] == {"a3": 1, "a12": F(-1, 2)}
    assert entry.lines["deviation"][()] == "nondeg z2_span"
    assert entry.lines["bracket"][(1, 2)] == [0, -1, 0]
    [(head, normal), (lsa_head, lsa)] = entry.sections
    assert head == ["normal", "normal-1"] and lsa_head == ["lsa"]
    assert normal["reeb"][()] == [0, 0, sc.ratfn(F(1), lam)]
    assert normal["member"][()] == {"a3": 2, "a12": 2}
    assert normal["map"] == {(1,): [0, F(1, 2), 0]}
    assert normal["witness"][()] == -1
    assert lsa["product"][(2, 0)] == [-sc.ratfn(F(1), lam ** 2), 0, 0]
    assert lsa["note"][()] == "as printed"


def nondeg_of(expr: str):
    """The nondeg value of CATALOG with its expression replaced by expr."""
    [entry] = parse_catalog(CATALOG.replace("a3*(a12 - 2*a3^2)/2", expr, 1))
    return entry.lines["nondeg"][()]


def test_expressions_divide_quotients_again():
    # a quotient is divided, and divides, like any other value
    lam = sc.Poly.var("lam")
    assert nondeg_of("1/lam/lam") == nondeg_of("1/lam^2") == sc.ratfn(F(1), lam ** 2)
    assert nondeg_of("2/(1/lam)") == 2 * lam
    assert nondeg_of("lam/(1/lam)") == lam ** 2
    for bad in ("a3/0", "1/(lam - lam)"):
        with pytest.raises(AlgFileError) as exc:
            nondeg_of(bad)
        assert str(exc.value) == f"line 9, col 10: bad expression '{bad}'"


@pytest.mark.parametrize(
    "old, new, where",
    [
        ("# comments", "dim 3 #", "line 1, col 1: expected an entry line"),
        ("entry family g34 g_{3.4}^{-1}", "entry family", "line 3, col 1: entry takes a kind and a name"),
        ("nondeg =", "reeb :", "line 9, col 1: unknown keyword 'reeb'"),
        ("  reeb :", "  nondeg =", "line 15, col 3: unknown keyword 'nondeg'"),
        ("a3*(a12 - 2*a3^2)/2", "a3*(a12 -", "line 9, col 10: bad expression 'a3*(a12 -'"),
        ("a3*(a12 - 2*a3^2)/2", "2.5*a3", "line 9, col 10: bad expression '2.5*a3'"),
        ("a3*(a12 - 2*a3^2)/2", "a3/0", "line 9, col 10: bad expression 'a3/0'"),
        ("a3=1, a12=-1/2", "a3", "line 10, col 10: bad --params piece 'a3'"),
        ("deviation = nondeg z2_span", "deviation =", "line 11, col 0: deviation needs a value"),
        ("normal normal-1", "normal", "line 12, col 1: normal takes 1 word(s)"),
        ("lsa\n", "lsa\nlsa\n", "line 20, col 1: lsa given twice"),
        ("  product 3 1", "  bracket 3 1", "line 22, col 3: unknown keyword 'bracket'"),
        ("bracket 2 3", "bracket 3 2", "line 6, col 9: bracket indices must satisfy i < j, got 3 2"),
        ("  witness = -1", "  witness = -1\n  witness = 1", "line 19, col 3: witness given twice"),
    ],
)
def test_parse_catalog_errors_name_their_line(old, new, where):
    assert old in CATALOG
    with pytest.raises(AlgFileError) as exc:
        parse_catalog(CATALOG.replace(old, new, 1))
    assert str(exc.value) == where
