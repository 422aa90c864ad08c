from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from coslie import catalog as cat
from coslie import cli, lie_core, verify
from coslie.algfile import format_algebra, parse_algebra, parse_extension, parse_map
from coslie.cli import main
from coslie.cosymplectic import exists_cosymplectic
from coslie.errors import AlgFileError, DuplicateBracket, IndexOutOfRange, MissingParam
from coslie.exterior import OneForm, TwoForm
from coslie.lie_core import LieAlgebra
from coslie.scalars import Poly

G31_NORMAL = """\
dim 3
bracket 2 3 : 1 1
alpha : 1 2
omega 1 3 : 1
"""

G21_NORMAL = """\
dim 3
bracket 1 2 : 1 1
alpha : 1 3
omega 1 2 : 1
"""

H5 = """\
dim 5
bracket 1 3 : 1 5
bracket 2 4 : 1 5
"""

BASE3 = """\
dim 3
bracket 1 2 : 1 1
alpha : 1 3
omega 1 2 : 1
"""

# Inputs of the exists golden file: Heisenberg yes/no cases, an abelian
# algebra, a catalog algebra, a "no" decided by the volume polynomials
# (no common kernel) and a witness found at the reciprocal staged point.
EXISTS_INPUTS = {
    "h3.alg": "dim 3\nbracket 1 2 : 1 3\n",
    "h5.alg": H5,
    "h7.alg": "dim 7\nbracket 1 4 : 1 7\nbracket 2 5 : 1 7\nbracket 3 6 : 1 7\n",
    "r5.alg": "dim 5\n",
    "a5_1.alg": "dim 5\nbracket 3 5 : 1 1\nbracket 4 5 : 1 2\n",
    "r3_1.alg": "dim 3\nbracket 1 3 : -1 1\nbracket 2 3 : -1 2\n",
    "s5.alg": (
        "dim 5\nbracket 1 5 : 2 1 -2 2\nbracket 2 5 : 1 1 -2 2\n"
        "bracket 3 5 : 1 2\nbracket 4 5 : -1 1 -1 4\n"
    ),
}

EXT_A = """\
dim 3
phi 2 : 1 1          # phi(e2) = b e1, b = 1
phi 3 : 1 3          # phi(e3) = f e3, f = 1
lambda : 1 3
v : 1 3
t = -1
"""

NOT_COSYMPLECTIC = "dim 3\nbracket 1 2 : 1 1\nalpha : 1 1\nomega 1 2 : 1\n"
EXT_A_FAIL = "dim 3\nphi 1 : 1 1\nphi 2 : 1 2\nphi 3 : 1 3\n"
EXT_C = "dim 3\nphi 2 : 1 1 1 3\nphi 3 : 1 3\nv : 1 3\n"
# the data of test_construct_B_reproduces_g2: phi(e1) = phi(e2) = e1,
# lambda = e^1 + e^2 + e^3, t = 0, theta = obar_phi = e^{12}
EXT_B = "dim 3\nphi 1 : 1 1\nphi 2 : 1 1\nlambda : 1 1 1 2 1 3\ntheta 1 2 : 1\n"

# Inputs and argument lists of the per-file commands golden file: a
# rational structure, a triple that is not cosymplectic, the fully
# symbolic g_{3.4}^{-1} export (reeb and products come out as unreduced
# quotients), and the three constructions on the BASE3 fixture.
COMMAND_INPUTS = {
    "g31.alg": G31_NORMAL,
    "bad.alg": NOT_COSYMPLECTIC,
    "base3.alg": BASE3,
    "ext_a.ext": EXT_A,
    "ext_a_fail.ext": EXT_A_FAIL,
    "ext_b.ext": EXT_B,
    "ext_c.ext": EXT_C,
}
COMMAND_RUNS = [
    [command, name]
    for name in ("g31.alg", "bad.alg", "g34.alg")
    for command in ("validate", "reeb", "lsa", "biinv", "symplectize")
] + [
    ["extend", "--construction", "A", "--data", "ext_a.ext", "base3.alg"],
    ["extend", "--construction", "A", "--data", "ext_a_fail.ext", "base3.alg"],
    ["extend", "--construction", "B", "--data", "ext_b.ext", "--alpha-d", "2", "base3.alg"],
    ["extend", "--construction", "C", "--data", "ext_c.ext", "--alpha-d", "2", "base3.alg"],
]


@pytest.fixture()
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


# ---------------------------------------------------------------------------
# parsing


def test_parse_round_trip():
    parsed = parse_algebra(G31_NORMAL)
    text = format_algebra(parsed.algebra, parsed.alpha, parsed.omega, parsed.params)
    again = parse_algebra(text)
    assert again.algebra == parsed.algebra
    assert again.alpha == parsed.alpha
    assert again.omega == parsed.omega
    assert format_algebra(again.algebra, again.alpha, again.omega, again.params) == text


coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def random_algebra_file(draw):
    dim = draw(st.integers(2, 4))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    brackets = {}
    for (i, j) in pairs:
        if draw(st.booleans()):
            vec = tuple(draw(coeffs) for _ in range(dim))
            brackets[(i, j)] = vec
    algebra = LieAlgebra(dim, brackets)
    alpha = OneForm(dim, tuple(draw(coeffs) for _ in range(dim)))
    omega = TwoForm(dim, {p: draw(coeffs) for p in pairs if draw(st.booleans())})
    return algebra, alpha, omega


@given(random_algebra_file())
def test_format_parse_round_trip_random(data):
    algebra, alpha, omega = data
    text = format_algebra(algebra, alpha, omega, {})
    parsed = parse_algebra(text)
    assert parsed.algebra == algebra
    if alpha.is_zero():
        assert parsed.alpha is None
    else:
        assert parsed.alpha == alpha
    if omega.is_zero():
        assert parsed.omega is None
    else:
        assert parsed.omega == omega
    assert format_algebra(parsed.algebra, parsed.alpha, parsed.omega, {}) == text


def test_parse_self_bracket_rejected():
    with pytest.raises(IndexOutOfRange):
        parse_algebra("dim 3\nbracket 1 1 : 1 2\n")


def test_parse_duplicate_bracket_rejected():
    with pytest.raises(DuplicateBracket):
        parse_algebra("dim 3\nbracket 1 2 : 1 1\nbracket 1 2 : 1 3\n")


def test_parse_unbound_symbol_gives_parametric_structure():
    parsed = parse_algebra("dim 3\nbracket 1 2 : lam 1\n")
    assert parsed.algebra.is_parametric()
    bound = parse_algebra("dim 3\nbracket 1 2 : lam 1\nparam lam = 2/3\n")
    assert not bound.algebra.is_parametric()
    from fractions import Fraction

    assert bound.algebra.brackets[(0, 1)][0] == Fraction(2, 3)


def test_parse_error_carries_line_and_column():
    with pytest.raises(AlgFileError) as exc:
        parse_algebra("dim 3\nbracket 1 2 : ?? 1\n")
    assert exc.value.line == 2
    assert exc.value.column == 15


def test_parsers_bind_params_and_record_symbols():
    parsed = parse_algebra("dim 3\nbracket 1 2 : a 1 b 3\nparam b = 1\n", {"a": Fraction(2)})
    assert parsed.algebra.brackets[(0, 1)] == (2, 0, 1)
    assert parsed.symbols == {"a", "b"} and parsed.params == {"a": 2, "b": 1}
    ext = parse_extension("dim 2\nphi 1 : c 2\nt = d\n", {"c": Fraction(3)})
    assert ext.data.phi.column(0) == (0, 3) and ext.data.t == Poly.var("d")
    assert ext.symbols == {"c", "d"}
    witness = parse_map("dim 2\nmap 1 : 1 1\nmap 2 : m 2\n", {"m": Fraction(-1)})
    assert witness.map.column(1) == (0, -1) and witness.symbols == {"m"}
    with pytest.raises(AlgFileError) as exc:
        parse_map("dim 2\nparam m = 1\nmap 1 : m 1\n", {"m": Fraction(1)})
    assert (exc.value.line, exc.value.column) == (2, 7)


def test_parse_extension_file():
    parsed = parse_extension(EXT_A)
    assert parsed.dim == 3
    from fractions import Fraction as F

    assert parsed.data.phi.column(1) == (F(1), F(0), F(0))
    assert parsed.data.t == F(-1)


# ---------------------------------------------------------------------------
# commands and exit codes


def test_validate_command_output(files, capsys):
    path = files("g31.alg", G31_NORMAL)
    code = main(["validate", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "cocycle1: ok" in out
    assert "cocycle2: ok" in out
    assert "volume: -1 (nonzero)" in out
    assert "cosymplectic: YES" in out
    assert "reeb: e2" in out


def test_validate_json_schema(files, capsys):
    path = files("g31.alg", G31_NORMAL)
    assert main(["validate", "--json", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "validate"
    assert payload["input"] == path
    assert [c["name"] for c in payload["checks"]] == ["cocycle1", "cocycle2", "volume"]
    assert all(set(c) == {"name", "pass", "defect"} for c in payload["checks"])
    assert payload["result"]["cosymplectic"] is True
    assert payload["result"]["reeb"] == "e2"


def test_validate_failure_exit_code(files, capsys):
    path = files("bad.alg", NOT_COSYMPLECTIC)
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert "cocycle1: FAIL" in out
    assert "cosymplectic: NO" in out


def test_exists_command(files, capsys):
    path = files("h5.alg", H5)
    assert main(["exists", path]) == 1
    assert "NO: det Phi == 0 identically over Z1 x Z2" in capsys.readouterr().out
    g31 = files("g31.alg", G31_NORMAL)
    assert main(["exists", g31]) == 0
    assert "YES" in capsys.readouterr().out
    # abelian R^13: a dense witness omega with 78 monomials, whose volume
    # the CLI must still compute
    r13 = files("r13.alg", "dim 13\n")
    assert main(["exists", "--json", r13]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["exists"] is True
    R13 = LieAlgebra.abelian(13)
    res = exists_cosymplectic(R13)
    witness = files("r13_witness.alg", format_algebra(R13, res.alpha, res.omega))
    assert main(["validate", witness]) == 0
    assert "cosymplectic: YES" in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, algebra, exists",
    [
        ("h9", cat.heisenberg(4), False),
        ("h15", cat.heisenberg(7), False),
        ("r9", LieAlgebra.abelian(9), True),
        ("r15", LieAlgebra.abelian(15), True),
    ],
    ids=["H9", "H15", "R9", "R15"],
)
def test_exists_and_validate_end_to_end_in_dims_9_to_15(files, capsys, name, algebra, exists):
    path = files(f"{name}.alg", format_algebra(algebra))
    assert main(["exists", "--json", path]) == (0 if exists else 1)
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["exists"] is exists
    if not exists:
        return
    # the witness the CLI printed, written out as a file, validates
    res = exists_cosymplectic(algebra)
    assert result["witness"] == {k: str(v) for k, v in sorted(res.witness.items())}
    witness = files(f"{name}_witness.alg", format_algebra(algebra, res.alpha, res.omega))
    assert main(["validate", "--json", witness]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["cosymplectic"] is True


def test_lsa_and_biinv_commands(files, capsys):
    g21 = files("g21.alg", G21_NORMAL)
    assert main(["lsa", g21]) == 0
    out = capsys.readouterr().out
    assert "e1.e2 = e1" in out and "e2.e2 = e2" in out
    assert main(["biinv", g21]) == 0
    out = capsys.readouterr().out
    assert "bi-invariant: YES" in out and "associative: YES" in out


def test_reeb_command_with_params(files, capsys):
    text = "dim 3\nbracket 1 3 : 1 1\nbracket 2 3 : -1 2\nalpha : lam 3\nomega 1 2 : 1\n"
    path = files("g34.alg", text)
    assert main(["reeb", "--params", "lam=2", path]) == 0
    assert "reeb: 1/2 e3" in capsys.readouterr().out


def test_extend_command_reproduces_first_construction(files, capsys):
    base = files("base3.alg", BASE3)
    ext = files("ext1.ext", EXT_A)
    assert main(["extend", "--construction", "A", "--data", ext, base]) == 0
    out = capsys.readouterr().out
    assert "[e1,e2] = e1" in out
    assert "[e2,e4] = -1 e1" in out
    assert "[e3,e4] = -1 e3 + -1 e5" in out
    assert "[e4,e5] = e3 + -1 e5" in out
    assert "alpha = e^4" in out
    assert "reeb: e4" in out


def record_row_builds(monkeypatch) -> list:
    """(algebra, degree) of each build of differential rows from now on;
    the list keeps each algebra alive, so no two of them share an id."""
    built, build = [], lie_core._differential_rows

    def rows(L, k):
        built.append((L, k))
        return build(L, k)

    monkeypatch.setattr(lie_core, "_differential_rows", rows)
    return built


def built_once(built: list) -> bool:
    keys = [(id(L), k) for L, k in built]
    return len(keys) == len(set(keys))


def test_each_algebra_builds_its_differential_rows_once(files, capsys, monkeypatch):
    # every d1, d2, cocycle space and Jacobi check of one algebra instance
    # reads the rows it built first: in one verify_all, and in one extend,
    # where the Jacobi check of the double extension shares its rows with
    # the structure made on it
    built = record_row_builds(monkeypatch)
    # a forked worker's builds are not seen here: check in this process
    monkeypatch.setattr(verify, "_workers", lambda: 1)
    verify.verify_all()
    # an algebra of the catalog registry keeps its rows from earlier runs
    assert built and built_once(built)
    base = files("base3.alg", BASE3)
    for construction, ext, more in (("A", EXT_A, []), ("B", EXT_B, ["--alpha-d", "2"])):
        built.clear()
        data = files(f"ext_{construction}.ext", ext)
        assert main(["extend", "--construction", construction, "--data", data, *more, base]) == 0
        assert built_once(built), construction
        assert {(L.dim, k) for L, k in built} >= {(5, 1), (5, 2)}, construction
    capsys.readouterr()


# [e1, e2] = e1 and [e1, e3] = e2: the Jacobiator of (e1, e2, e3) is -e2
NOT_LIE = "dim 3\nbracket 1 2 : 1 1\nbracket 1 3 : 1 2\nalpha : 1 3\nomega 1 2 : 1\n"


@pytest.mark.parametrize(
    "command", ["validate", "reeb", "lsa", "biinv", "exists", "symplectize", "extend", "isocheck"]
)
def test_every_file_command_refuses_a_bracket_that_is_not_lie(files, capsys, command):
    # each exits 1 with the first failing triple, as for any mathematical
    # failure, and no command answers on the input
    bad, good = files("not_lie.alg", NOT_LIE), files("base3.alg", BASE3)
    argv = {
        "extend": ["extend", "--construction", "A", "--data", files("a.ext", EXT_A), bad],
        "isocheck": ["isocheck", good, bad, files("w.map", ISO_MAP)],
    }.get(command, [command, bad])
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: NotLieAlgebra: {bad}: Jacobi identity fails on (e1, e2, e3)\n"


def test_extend_condition_failure_exit(files, capsys):
    base = files("base3.alg", BASE3)
    bad = files("bad.ext", EXT_A_FAIL)
    assert main(["extend", "--construction", "A", "--data", bad, base]) == 1
    assert "conditions: FAIL" in capsys.readouterr().out


def test_extend_params_bind_the_base_and_the_data_file(files, capsys):
    # w is a symbol of the base file and s one of the data file: binding
    # both by --params gives the report of the files with the values written in
    written = ["--data", files("ext_a.ext", EXT_A), files("base3.alg", BASE3)]
    assert main(["extend", "--construction", "A", *written]) == 0
    want = capsys.readouterr().out
    symbolic = [
        "--data", files("ext_s.ext", EXT_A.replace("t = -1", "t = s")),
        files("base_w.alg", BASE3.replace("omega 1 2 : 1", "omega 1 2 : w")),
    ]
    assert main(["extend", "--construction", "A", *symbolic, "--params", "w=1,s=-1"]) == 0
    assert capsys.readouterr().out == want


def test_symplectize_command(files, capsys):
    g21 = files("g21.alg", G21_NORMAL)
    assert main(["symplectize", g21]) == 0
    out = capsys.readouterr().out
    assert "dim 4 extension" in out
    assert "symplectic: YES" in out


def test_isocheck_command(files, capsys):
    one = files(
        "a.alg",
        "dim 3\nbracket 1 3 : 1 1\nbracket 2 3 : -1 2\nalpha : 5 3\nomega 1 2 : 1\n",
    )
    two = files(
        "b.alg",
        "dim 3\nbracket 1 3 : 1 1\nbracket 2 3 : -1 2\nalpha : 5 3\n"
        "omega 1 2 : 2\nomega 1 3 : 1\nomega 2 3 : 3\n",
    )
    witness = files(
        "map.map",
        "dim 3\nmap 1 : 1 1\nmap 2 : 1/2 2\nmap 3 : 3/2 1 -1/2 2 1 3\n",
    )
    assert main(["isocheck", one, two, witness]) == 0
    assert "isomorphic: YES" in capsys.readouterr().out
    # --params binds a symbol that only the witness map uses
    symbolic = files("s.map", Path(witness).read_text().replace(": 1/2 2", ": s 2"))
    assert main(["isocheck", one, two, symbolic, "--params", "s=1/2"]) == 0
    assert "isomorphic: YES" in capsys.readouterr().out


def test_isocheck_failure_exit_code(files, capsys):
    one = files("g31.alg", G31_NORMAL)
    swap = files("swap.map", "dim 3\nmap 1 : 1 2\nmap 2 : 1 1\nmap 3 : 1 3\n")
    assert main(["isocheck", one, one, swap]) == 1
    assert capsys.readouterr().out == (
        "invertible: ok\nbracket_preserving: FAIL\nalpha_pullback: FAIL\n"
        "omega_pullback: FAIL\nisomorphic: NO\n"
    )
    zero = files("zero.map", "dim 3\n")
    assert main(["isocheck", one, one, zero]) == 1
    assert capsys.readouterr().out == (
        "invertible: FAIL\nbracket_preserving: ok\nalpha_pullback: FAIL\n"
        "omega_pullback: FAIL\nisomorphic: NO\n"
    )


def test_isocheck_dimension_mismatch_is_a_usage_error(files, capsys):
    # inputs of different dimensions are a usage error, as in extend, not
    # a failed isomorphism
    one = files("g31.alg", G31_NORMAL)
    five = files("a5.alg", "dim 5\nbracket 1 2 : 1 3\nbracket 4 5 : 1 3\n")
    witness = files("w.map", ISO_MAP)
    small = files("small.map", "dim 2\nmap 1 : 1 1\nmap 2 : 1 2\n")
    for argv in (["isocheck", one, one, small], ["isocheck", one, five, witness]):
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "parse error: line 0, col 0: algebra and map dimensions differ\n"
        )


P_ONLY = "dim 3\nbracket 1 3 : 1 1\nbracket 2 3 : -1 2\nalpha : p 3\nomega 1 2 : 1\n"


def test_params_name_symbols_of_the_input_once(files, capsys):
    path = files("p.alg", P_ONLY)
    assert main(["validate", path, "--params", "p=2"]) == 0
    assert capsys.readouterr().out == (
        "cocycle1: ok\ncocycle2: ok\nvolume: 2 (nonzero)\ncosymplectic: YES\nreeb: 1/2 e3\n"
    )
    for params, error in (
        ("q=2", "--params binds no symbol of the input: q"),
        ("p=2,q=2,a=1", "--params binds no symbol of the input: a, q"),
        ("p=2,p=3", "--params gives 'p' twice"),
    ):
        assert main(["validate", path, "--params", params]) == 2
        assert capsys.readouterr().err == f"parse error: line 0, col 0: {error}\n"
    # a name bound by a param line, and a param line given twice
    bound = files("bound.alg", P_ONLY + "param p = 2\n")
    assert main(["validate", bound, "--params", "p=3"]) == 2
    assert capsys.readouterr().err == "parse error: line 6, col 7: parameter 'p' bound twice\n"
    twice = files("twice.alg", P_ONLY + "param p = 2\nparam p = 3\n")
    assert main(["validate", twice]) == 2
    assert capsys.readouterr().err == "parse error: line 7, col 7: parameter 'p' bound twice\n"
    # extend checks the names against the base and the data file together
    base, ext = files("base3.alg", BASE3), files("ext_s.ext", EXT_A.replace("t = -1", "t = s"))
    assert main(["extend", "--construction", "A", "--data", ext, base, "--params", "s=-1,w=1"]) == 2
    assert capsys.readouterr().err.endswith("binds no symbol of the input: w\n")


def test_params_names_are_symbols(files, capsys):
    # a name that is no symbol is rejected as a param line's would be, not
    # reported as an unbound (empty) name
    path = files("p.alg", P_ONLY)
    for params, name in (("=1", ""), (" =1,p=2", ""), ("p q=1", "p q"), ("1p=2", "1p")):
        assert main(["validate", path, "--params", params]) == 2
        assert capsys.readouterr().err == f"parse error: line 0, col 0: bad parameter name '{name}'\n"
    assert main(["catalog", "export", "g_{3.1}", "--params", "=1"]) == 2
    assert capsys.readouterr().err == "parse error: line 0, col 0: bad parameter name ''\n"


def test_parse_error_exit_code(files, capsys):
    bad = files("bad.alg", "dim 3\nbracket 1 1 : 1 1\n")
    assert main(["validate", bad]) == 2
    assert "parse error" in capsys.readouterr().err


def test_unreadable_input_is_a_usage_error(files, capsys, tmp_path):
    # a directory (or a file without read permission) where an input file
    # goes is a usage error, like a missing file, not a traceback
    one = files("g31.alg", G31_NORMAL)
    witness = files("w.map", ISO_MAP)
    for argv, path in (
        (["validate", str(tmp_path)], tmp_path),
        (["isocheck", one, one, str(tmp_path)], tmp_path),
        (["isocheck", one, one, witness + ".missing"], witness + ".missing"),
    ):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"cannot read {path}\n")

    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    # an OSError of no file, here of writing the report, is not a read error
    with contextlib.redirect_stdout(Closed()), pytest.raises(BrokenPipeError):
        main(["catalog", "list"])


@pytest.mark.parametrize(
    "text, params, where",
    [
        ("dim 3\nbracket 1 2 : 1/0 1\n", "", "line 2, col 15: bad rational '1/0'"),
        ("dim 3\nparam p = 2/0\nbracket 1 2 : p 1\n", "", "line 2, col 11: bad rational '2/0'"),
        ("dim 3\nbracket 1 2 : 3/0*p 1\n", "", "line 2, col 15: bad rational '3/0'"),
        ("dim 3\nbracket 1 2 : a 1\n", "a=1/0", "line 0, col 0: bad rational '1/0'"),
    ],
)
def test_zero_denominator_is_a_parse_error(files, capsys, text, params, where):
    path = files("zero.alg", text)
    assert main(["validate", path, "--params", params]) == 2
    assert capsys.readouterr().err == f"parse error: {where}\n"


EXTEND_A = ["extend", "--construction", "A", "--data", "{ext}", "{base}"]


@pytest.mark.parametrize(
    "argv, ext, where",
    [
        # a keyword line appears at most once per index set
        (EXTEND_A, EXT_A + "theta 1 2 : 1\ntheta 1 2 : 2\n", "line 8, col 1: theta 1 2 given twice"),
        (EXTEND_A, EXT_A + "t = 2\n", "line 7, col 1: t given twice"),
        (EXTEND_A, EXT_A + "phi 2 : 1 3\n", "line 7, col 1: phi 2 given twice"),
        (EXTEND_A, EXT_A + "lambda : 1 1\n", "line 7, col 1: lambda given twice"),
        (EXTEND_A, EXT_A + "v : 1 1\n", "line 7, col 1: v given twice"),
        (["isocheck", "{base}", "{base}", "{map}"], EXT_A, "line 5, col 1: map 1 given twice"),
        (["validate", "{dup}"], EXT_A, "line 5, col 1: alpha given twice"),
        # tokens before ':' where the keyword takes none
        (EXTEND_A, EXT_A.replace("lambda : 1 3", "lambda 7 junk : 1 1"),
         "line 4, col 1: lambda takes no indices before ':'"),
        (EXTEND_A, EXT_A.replace("v : 1 3", "v 1 2 3 : 1 2"),
         "line 5, col 1: v takes no indices before ':'"),
        # command-line values are p/q, as in a param line
        (["validate", "{p}", "--params", "p=1.5"], EXT_A, "line 0, col 0: bad rational '1.5'"),
        (["validate", "{p}", "--params", "p=1e3"], EXT_A, "line 0, col 0: bad rational '1e3'"),
        (["validate", "{p}", "--params", "p=1_000"], EXT_A, "line 0, col 0: bad rational '1_000'"),
        (["extend", "--construction", "C", "--data", "{ext}", "--alpha-d", "2.5", "{base}"], EXT_C,
         "line 0, col 0: bad rational '2.5'"),
        (["extend", "--construction", "C", "--data", "{ext}", "--alpha-d=", "{base}"], EXT_C,
         "line 0, col 0: bad rational ''"),
        # the keywords of catalog files are not keywords of algebra files
        (["validate", "{ext}"], "entry family g\n" + BASE3, "line 1, col 1: unknown keyword 'entry'"),
        (["validate", "{ext}"], BASE3 + "nondeg = a3\n", "line 5, col 1: unknown keyword 'nondeg'"),
        (["validate", "{ext}"], BASE3 + "sample = a3=1\n", "line 5, col 1: unknown keyword 'sample'"),
        (["validate", "{ext}"], BASE3 + "normal normal-1\n",
         "line 5, col 1: unknown keyword 'normal'"),
    ],
    ids=[
        "theta", "t", "phi", "lambda", "v", "map", "alpha", "lambda-junk", "v-indices",
        "params-1.5", "params-1e3", "params-1_000", "alpha-d-2.5", "alpha-d-empty",
        "entry", "nondeg", "sample", "normal",
    ],
)
def test_one_grammar_for_every_file_and_value(files, capsys, argv, ext, where):
    paths = {
        "ext": files("data.ext", ext),
        "base": files("base3.alg", BASE3),
        "map": files("w.map", ISO_MAP + "map 1 : 1 1\n"),
        "dup": files("dup.alg", BASE3 + "alpha : 1 1\n"),
        "p": files("p.alg", P_ONLY),
    }
    assert main([a.format(**paths) for a in argv]) == 2
    assert capsys.readouterr().err == f"parse error: {where}\n"


def test_bad_user_values_are_parse_errors(files, capsys, tmp_path):
    base = files("base3.alg", BASE3)
    ext = files("ext_c.ext", EXT_C)
    for bad in ("1/0", "x"):
        assert main(["extend", "--construction", "C", "--data", ext, "--alpha-d", bad, base]) == 2
        assert capsys.readouterr().err == f"parse error: line 0, col 0: bad rational '{bad}'\n"
    assert main(["validate", "--params", "a=x", base]) == 2
    assert "bad rational 'x'" in capsys.readouterr().err
    # a digit that int() cannot read, and bytes that are not UTF-8
    assert main(["validate", files("sup.alg", "dim \u00b2\n")]) == 2
    assert "dim takes one integer" in capsys.readouterr().err
    raw = tmp_path / "raw.alg"
    raw.write_bytes(b"dim 3\nbracket 1 2 : 1\xff 1\n")
    assert main(["validate", str(raw)]) == 2
    assert capsys.readouterr().err == "parse error: line 2, col 15: bad coefficient token '1\ufffd'\n"


ISO_MAP = "dim 3\nmap 1 : 1 1\nmap 2 : 1/2 2\nmap 3 : 3/2 1 -1/2 2 1 3\n"
FUZZ_TOKENS = [
    "1/0", "3/0*p", "0", "-1", "1/2", "7", "x", "p", "lam", "2*q", "1e3", "1.5",
    "\u00b2", "\u0663", ":", "=", "#", "*", "/", "-", "dim", "param", "bracket", "alpha",
    "omega", "phi", "lambda", "v", "t", "theta", "map",
]


def _exports(dim):
    return [
        cat.export_entry(n) for n in cat.list_entries() if n != "Heisenberg" and cat.get_entry(n).dim == dim
    ]


@st.composite
def mutated(draw, texts):
    """One of texts with up to three lines dropped, duplicated or swapped or
    tokens replaced, dropped or inserted; new tokens come from the text
    itself, FUZZ_TOKENS or short arbitrary strings."""
    text = draw(st.sampled_from(texts))
    lines = text.splitlines() or [""]
    token = st.one_of(st.sampled_from(FUZZ_TOKENS + text.split()), st.text(max_size=3))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        toks = lines[i].split()
        kind = draw(st.sampled_from(["replace", "drop", "insert", "drop line", "dup line", "swap"]))
        if kind == "drop line":
            del lines[i]
        elif kind == "dup line":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            k = draw(st.integers(0, len(toks)))
            if kind == "insert":
                toks.insert(k, draw(token))
            elif toks:
                k = min(k, len(toks) - 1)
                if kind == "replace":
                    toks[k] = draw(token)
                else:
                    del toks[k]
            lines[i] = " ".join(toks)
        lines = lines or [""]
    return "\n".join(lines) + "\n"


@given(st.data())
def test_malformed_files_end_in_an_exit_code(tmp_path_factory, data):
    # validate, extend --data and isocheck on mutated catalog exports and
    # fixtures: each returns 0, 1 or 2 and never raises
    texts3, texts5 = _exports(3), _exports(5)
    root = tmp_path_factory.mktemp("fuzz")

    def write(name, text):
        (root / name).write_text(text, encoding="utf-8")
        return str(root / name)

    runs = [
        ["validate", write("v.alg", data.draw(mutated(texts3 + texts5)))],
        [
            "extend",
            "--construction", data.draw(st.sampled_from("ABC")),
            "--data", write("e.ext", data.draw(mutated([EXT_A, EXT_B, EXT_C, EXT_A_FAIL]))),
            "--alpha-d=" + data.draw(st.sampled_from(["", "2", "-1/2", "1/0", "x"])),
            write("b.alg", data.draw(mutated(texts3))),
        ],
        [
            "isocheck",
            write("i1.alg", data.draw(mutated(texts3))),
            write("i2.alg", data.draw(mutated(texts3))),
            write("i.map", data.draw(mutated([ISO_MAP]))),
        ],
    ]
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 1, 2), argv


def test_catalog_list_and_export(files, capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "g_{3.1}" in out.splitlines()
    assert main(["catalog", "export", "g_{3.4}^{-1}-normal-1"]) == 0
    text = capsys.readouterr().out
    parsed = parse_algebra(text)
    assert parsed.algebra.dim == 3


def test_extend_construction_c_with_alpha_d(files, capsys):
    base = files("base3.alg", BASE3)
    ext = files("ext3.ext", EXT_C)
    assert main(
        ["extend", "--construction", "C", "--data", ext, "--alpha-d", "2", base]
    ) == 0
    out = capsys.readouterr().out
    assert "alpha = e^3 + 2 e^4 + -1 e^5" in out
    assert "reeb: e3" in out


def test_catalog_export_heisenberg_with_params(capsys):
    assert main(["catalog", "export", "Heisenberg", "--params", "n=2"]) == 0
    parsed = parse_algebra(capsys.readouterr().out)
    assert parsed.algebra.dim == 5


def test_catalog_export_params_name_parameters_of_the_entry(capsys):
    # as for input files, a --params name that binds nothing is a parse error
    bound = "a3=1,a12=1,a13=0,a23=0"
    assert main(["catalog", "export", "g_{3.4}^{-1}", "--params", bound + ",zzz=5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--params binds no parameter of g_{3.4}^{-1}: zzz" in err
    assert main(["catalog", "export", "g_{3.4}^{-1}", "--params", bound]) == 0
    out = capsys.readouterr().out
    assert "param a13 = 0" in out and "zzz" not in out
    assert main(["catalog", "export", "Heisenberg", "--params", "n=2,m=1"]) == 2
    assert "no parameter of Heisenberg: m" in capsys.readouterr().err


def test_catalog_export_with_a_missing_parameter_is_a_usage_error(capsys):
    # exit 2 (usage), not 1 (a mathematical failure); the library call
    # still raises MissingParam
    assert main(["catalog", "export", "g_{3.1}", "--params", "a2=1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "missing parameters for g_{3.1}: a12, a13, a23, a3" in err
    assert main(["catalog", "export", "g_{3.1}", "--params", "zzz=1"]) == 2
    assert "no parameter of g_{3.1}: zzz" in capsys.readouterr().err
    assert main(["catalog", "export", "Heisenberg"]) == 2
    assert "Heisenberg needs the parameter n" in capsys.readouterr().err
    with pytest.raises(MissingParam):
        cat.instantiate("g_{3.1}", {"a2": 1})


def test_catalog_export_of_an_unknown_entry_is_a_usage_error(capsys):
    assert main(["catalog", "export", "NOPE"]) == 2
    assert capsys.readouterr() == (
        "", "parse error: line 0, col 0: no catalog entry named 'NOPE'\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "list", "X"],
        ["catalog", "list", "--params", "zz=1"],
        ["catalog", "list", "--json"],
        ["catalog", "export"],
        ["catalog", "export", "g_{3.1}", "--json"],
        ["catalog", "verify-all", "--params", "zz=1"],
        ["catalog", "verify-all", "g_{3.1}"],
    ],
    ids=" ".join,
)
def test_catalog_actions_take_only_their_own_arguments(capsys, argv):
    # each catalog action is a sub-command with the arguments it reads:
    # list none, export NAME [--params], verify-all [--json]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert capsys.readouterr().out == ""


def test_catalog_verify_all_deterministic_and_flagged(capsys):
    code1 = main(["catalog", "verify-all", "--json"])
    out1 = capsys.readouterr().out
    code2 = main(["catalog", "verify-all", "--json"])
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert code1 == code2 == 0
    payload = json.loads(out1)
    assert payload["result"]["ok"] is True
    assert payload["result"]["failed"] == 0
    assert payload["result"]["flagged"] == 13


def test_catalog_verify_all_json_matches_golden_file(capsys):
    # tests/data/verify_all.json is the committed report; a change that
    # rewords or reorders any check must update it on purpose.
    golden = (Path(__file__).parent / "data" / "verify_all.json").read_bytes()
    assert main(["catalog", "verify-all", "--json"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_catalog_verify_all_text_agrees_with_golden_file(capsys):
    # the text report says line by line what the committed JSON report says
    golden = json.loads((Path(__file__).parent / "data" / "verify_all.json").read_text("utf-8"))
    want = []
    for group in golden["checks"]:
        for c in group["results"]:
            status = "ok" if c["pass"] else "FAIL"
            if c["flagged"]:
                status += " (flagged)" if c["pass"] else " (flagged: documented deviation)"
            line = f"{group['entry']} :: {c['name']}: {status}"
            want.append(f"{line} -- {c['defect']}" if c["defect"] else line)
    total = golden["result"]
    assert (total["total"], total["failed"], total["flagged"]) == (344, 0, 13)
    assert main(["catalog", "verify-all"]) == 0
    *lines, summary = capsys.readouterr().out.splitlines()
    assert lines == want
    assert summary == "summary: 344 checks, 0 failures, 13 flagged"


def test_exists_output_matches_golden_file(tmp_path, monkeypatch, capsys):
    # tests/data/exists.json is the committed `exists --json` and text stdout
    # of EXISTS_INPUTS; a change to the decision or its witnesses must
    # update it on purpose.
    golden = (Path(__file__).parent / "data" / "exists.json").read_bytes()
    monkeypatch.chdir(tmp_path)
    outputs = {}
    for name, text in EXISTS_INPUTS.items():
        Path(name).write_text(text)
        code = main(["exists", "--json", name])
        as_json = capsys.readouterr().out
        assert main(["exists", name]) == code
        outputs[name] = {"json": as_json, "text": capsys.readouterr().out}
    rendered = json.dumps(outputs, indent=2, ensure_ascii=False) + "\n"
    assert rendered.encode("utf-8") == golden


def _command_outputs(tmp_path, monkeypatch, capsys) -> str:
    monkeypatch.chdir(tmp_path)
    for name, text in COMMAND_INPUTS.items():
        Path(name).write_text(text)
    assert main(["catalog", "export", "g_{3.4}^{-1}"]) == 0
    Path("g34.alg").write_text(capsys.readouterr().out)
    outputs = {}
    for argv in COMMAND_RUNS:
        code = main([*argv, "--json"])
        as_json = capsys.readouterr().out
        assert main(argv) == code
        outputs[" ".join(argv)] = {
            "code": code, "json": as_json, "text": capsys.readouterr().out
        }
    return json.dumps(outputs, indent=2, ensure_ascii=False) + "\n"


def test_per_file_commands_match_golden_file(tmp_path, monkeypatch, capsys):
    # tests/data/commands.json is the committed stdout (--json and text) and
    # exit code of COMMAND_RUNS; a change to any of these reports must
    # update it on purpose.
    golden = (Path(__file__).parent / "data" / "commands.json").read_bytes()
    rendered = _command_outputs(tmp_path, monkeypatch, capsys)
    assert rendered.encode("utf-8") == golden


# ---------------------------------------------------------------------------
# the parser, built once per process


@pytest.fixture()
def parsers_built(monkeypatch):
    """A list that grows by one for every ArgumentParser constructed."""
    built = []
    plain_init = argparse.ArgumentParser.__init__

    def init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        plain_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
    cli.build_parser.cache_clear()
    yield built
    cli.build_parser.cache_clear()  # drop the parser built under the counter


def test_main_builds_the_parser_on_its_first_call_only(files, capsys, parsers_built):
    assert main(["catalog", "list"]) == 0
    assert parsers_built[0] == "coslie" and len(parsers_built) == 13
    assert main(["reeb", files("g31.alg", G31_NORMAL), "--json"]) == 0
    assert main(["validate", files("bad.alg", NOT_COSYMPLECTIC)]) == 1
    assert len(parsers_built) == 13
    capsys.readouterr()


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "plain_init = argparse.ArgumentParser.__init__\n"
        "def init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    plain_init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = init\n"
        "import coslie.cli\n"
        "print(len(built))\n"
    )
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout == "0\n"


def _outcome(argv) -> tuple:
    """(exit code, stdout, stderr) of one main call; argparse's own exits
    (usage errors, --help) count by their SystemExit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_a_call_leaves_nothing_in_the_parser_for_the_next(files):
    base, ext = files("base3.alg", BASE3), files("ext_c.ext", EXT_C)
    extend = ["extend", "--construction", "C", "--data", ext, base]
    sequence = [
        [*extend, "--alpha-d", "1/2"],
        extend,  # --alpha-d is back at its default 0
        ["catalog", "list", "X"],  # a usage error ...
        ["catalog", "list"],  # ... then a valid call
        ["--help"],
        ["--help"],
        ["reeb", "--json", base],
        ["reeb", base],
    ]
    shared = [_outcome(argv) for argv in sequence]
    fresh = []
    for argv in sequence:
        cli.build_parser.cache_clear()
        fresh.append(_outcome(argv))
    assert shared == fresh
    half, default, usage, listed, help1, help2, as_json, text = shared
    assert "alpha = e^3 + 1/2 e^4 + -1 e^5\n" in half[1]
    assert default[0] == 0 and "alpha = e^3 + -1 e^5\n" in default[1]
    assert usage[0] == 2 and usage[1] == ""
    assert usage[2] == (
        "usage: coslie catalog list [-h]\n"
        "coslie catalog list: error: unrecognized arguments: X\n"
    )
    assert listed == (0, "".join(f"{n}\n" for n in cat.list_entries()), "")
    assert help1 == help2 and help1[0] == 0 and help1[1].startswith("usage: coslie [-h]")
    assert json.loads(as_json[1])["result"]["reeb"] == "e3"
    assert text == (0, "cosymplectic: ok\nreeb: e3\n", "")
    parser = cli.build_parser()
    assert parser.parse_args([*extend, "--alpha-d", "1/2"]).alpha_d == "1/2"
    assert parser.parse_args(extend).alpha_d == "0"


@pytest.mark.parametrize(
    "argv, usage, extra",
    [
        (["catalog", "list", "X"], "coslie catalog list [-h]", "X"),
        (["catalog", "verify-all", "--bogus"], "coslie catalog verify-all [-h] [--json]", "--bogus"),
        (["reeb", "{file}", "extra"], "coslie reeb [-h] [--json] [--params PARAMS] file", "extra"),
    ],
    ids=["catalog-list", "catalog-verify-all", "reeb"],
)
def test_extra_arguments_are_reported_with_the_sub_command_usage(files, argv, usage, extra):
    path = files("g31.alg", G31_NORMAL)
    prog = usage.split(" [")[0]
    assert _outcome([a.format(file=path) for a in argv]) == (
        2,
        "",
        f"usage: {usage}\n{prog}: error: unrecognized arguments: {extra}\n",
    )


def test_an_argument_before_the_command_is_reported_with_the_top_level_usage(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
    assert _outcome(["--bogus", "catalog", "list"]) == (
        2,
        "",
        "usage: coslie [-h]\n"
        "              {validate,reeb,lsa,biinv,exists,symplectize,extend,isocheck,catalog}\n"
        "              ...\n"
        "coslie: error: unrecognized arguments: --bogus\n",
    )
    assert _outcome(["catalog", "list", "--bogus"]) == (
        2,
        "",
        "usage: coslie catalog list [-h]\n"
        "coslie catalog list: error: unrecognized arguments: --bogus\n",
    )

