"""Per-operation oracles.

``check(op, rc, out)`` returns None when the printed answer of one command
is right and a short reason when it is not.  The checks use what the
generator knows about each input (alg.py's reference arithmetic), never the
program's own verdicts alone, so a wrong answer printed with a passing
check line is still caught.  They run outside the timed region.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import alg

REFERENCE = Path(__file__).resolve().parent / "data" / "verify_all_reference.json"


class Mismatch(Exception):
    pass


def _expect(ok: bool, reason: str) -> None:
    if not ok:
        raise Mismatch(reason)


def check(op, rc: int, out: str):
    try:
        _CHECKS[op.kind.split("-")[0]](op, rc, out)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, SyntaxError, LookupError, TypeError, AttributeError, ZeroDivisionError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None


def _report(out: str) -> dict:
    doc = json.loads(out)
    _expect(isinstance(doc, dict) and "result" in doc, "no result in the report")
    return doc


def _checks_pass(doc: dict, *names) -> None:
    by_name = {c["name"]: c["pass"] for c in doc["checks"]}
    for name in names:
        _expect(by_name.get(name) is True, f"check {name} does not pass")


# ---------------------------------------------------------------------------
# catalog verify-all


def reference_triples() -> list:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def verify_all_triples(doc: dict) -> list:
    """Sorted (entry, check, pass) triples; detail strings are not compared."""
    return sorted(
        [group["entry"], r["name"], r["pass"]] for group in doc["checks"] for r in group["results"]
    )


def _catalog(op, rc, out):
    _expect(rc == 0, f"exit code {rc}")
    doc = _report(out)
    _expect(doc["result"].get("ok") is True, "verify-all is not ok")
    _expect(doc["result"].get("failed") == 0, "verify-all reports failures")
    _expect(verify_all_triples(doc) == reference_triples(), "check set differs from the reference")


# ---------------------------------------------------------------------------
# exists


def witness_structure(text: str, witness: dict) -> alg.Structure:
    """The witness (alpha, omega) spelled out in the program's cocycle bases.

    The witness names coefficients s_i, t_j over the bases that
    ``cocycle_spaces`` returns, so the program's bases are needed to read
    it; the resulting forms are then checked with the reference arithmetic.
    """
    from coslie.algfile import parse_algebra
    from coslie.exterior import cocycle_spaces

    s = alg.instantiate(alg.parse_linear_alg(text), {})
    z1, z2 = cocycle_spaces(parse_algebra(text).algebra)
    n = s.dim
    alpha = [alg.ZERO] * n
    omega: dict = {}
    for key, value in witness.items():
        c, k = Fraction(value), int(key[1:]) - 1
        if key[0] == "s":
            alpha = [a + c * b for a, b in zip(alpha, z1[k].coeffs)]
        else:
            for ij, b in z2[k].coeffs.items():
                omega[ij] = omega.get(ij, alg.ZERO) + c * b
    return alg.Structure(n, s.br, tuple(alpha), omega)


def _exists(op, rc, out):
    want = op.ref["exists"]
    _expect(rc == (0 if want else 1), f"exit code {rc}")
    res = _report(out)["result"]
    _expect(res["exists"] is want, f"answer {res['exists']}, expected {want}")
    if want:
        s = witness_structure(op.ref["text"], res["witness"])
        _expect(alg.is_cosymplectic(s), "witness is not a cosymplectic structure")


# ---------------------------------------------------------------------------
# per-file commands; symbolic files are checked at op.ref["values"]


def _validate(op, rc, out):
    s, values = op.ref["structure"], op.ref.get("values")
    _expect(rc == 0, f"exit code {rc}")
    doc = _report(out)
    _checks_pass(doc, "cocycle1", "cocycle2", "volume")
    res = doc["result"]
    _expect(res["cosymplectic"] is True, "not cosymplectic")
    vol = alg.eval_scalar(res["volume"], values)
    _expect(vol != 0 and alg.volume_matches(s, vol), "volume does not match det Phi")
    if values is None:
        _expect(alg.is_reeb(s, alg.parse_vec(res["reeb"], s.dim)), "wrong Reeb vector")


def _reeb(op, rc, out):
    s, values = op.ref["structure"], op.ref.get("values")
    _expect(rc == 0, f"exit code {rc}")
    doc = _report(out)
    _checks_pass(doc, "cosymplectic")
    xi = alg.parse_vec(doc["result"]["reeb"], s.dim, values)
    _expect(alg.is_reeb(s, xi), "alpha(xi) != 1 or i_xi omega != 0")


def product_table(doc: dict, dim: int, values=None) -> list:
    table = [[(alg.ZERO,) * dim for _ in range(dim)] for _ in range(dim)]
    for item in doc["result"]["products"]:
        table[item["i"] - 1][item["j"] - 1] = alg.parse_vec(item["value"], dim, values)
    return table


def _lsa(op, rc, out):
    s, values = op.ref["structure"], op.ref.get("values")
    _expect(rc == 0, f"exit code {rc}")
    doc = _report(out)
    _checks_pass(doc, "cosymplectic", "left_symmetric", "commutator")
    _expect(product_table(doc, s.dim, values) == alg.lsa_table(s), "product table differs")


def _associative(table: list) -> bool:
    n = len(table)

    def mul(x, j):  # x . e_j
        out = [alg.ZERO] * n
        for a, c in enumerate(x):
            if c:
                for k, v in enumerate(table[a][j]):
                    out[k] += c * v
        return tuple(out)

    def lmul(i, y):  # e_i . y
        out = [alg.ZERO] * n
        for b, c in enumerate(y):
            if c:
                for k, v in enumerate(table[i][b]):
                    out[k] += c * v
        return tuple(out)

    return all(
        mul(table[i][j], k) == lmul(i, table[j][k]) for i in range(n) for j in range(n) for k in range(n)
    )


def _biinv(op, rc, out):
    s = op.ref["structure"]
    _expect(rc in (0, 1), f"exit code {rc}")
    doc = _report(out)
    _checks_pass(doc, "cosymplectic", "conditions_iff_associative")
    res = doc["result"]
    _expect(res["biinvariant"] is (rc == 0), "exit code disagrees with the answer")
    _expect(res["associative"] is _associative(alg.lsa_table(s)), "wrong associativity")


_BRACKET = re.compile(r"^\[e(\d+),e(\d+)\] = (.*)$")


def extension_structure(res: dict) -> alg.Structure:
    n = res["dim"]
    br = {}
    for line in res["brackets"]:
        i, j, rhs = _BRACKET.match(line).groups()
        br[(int(i) - 1, int(j) - 1)] = alg.parse_vec(rhs, n)
    alpha = alg.parse_vec(res["alpha"], n)
    omega = {}
    for coeff, pair in alg.parse_terms(res["omega"]):
        omega[(int(pair[0]) - 1, int(pair[1:]) - 1)] = alg.eval_scalar(coeff)
    return alg.Structure(n, br, alpha, omega)


def _extend(op, rc, out):
    _expect(rc == 0, f"exit code {rc}")
    doc = _report(out)
    _checks_pass(doc, "conditions", "validates")
    res = doc["result"]
    _expect(res["dim"] == op.facts["dim"] + 2, "wrong dimension")
    s = extension_structure(res)
    _expect(alg.is_cosymplectic(s), "extension is not cosymplectic")
    _expect(alg.is_reeb(s, alg.parse_vec(res["reeb"], s.dim)), "wrong Reeb vector")


def _symbolic(op, rc, out):
    {"validate": _validate, "reeb": _reeb, "lsa": _lsa}[op.kind[len("sym-"):]](op, rc, out)


# keyed by the first part of Op.kind
_CHECKS = {
    "catalog": _catalog,
    "no": _exists,
    "yes": _exists,
    "validate": _validate,
    "reeb": _reeb,
    "lsa": _lsa,
    "biinv": _biinv,
    "extend": _extend,
    "sym": _symbolic,
}
