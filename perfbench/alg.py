"""Reference arithmetic for the benchmark, independent of ``coslie``.

The generator uses it to make structures whose answers are known, and the
oracles use it to check what the program printed.  Everything is exact
``Fraction`` arithmetic on dense vectors, written for clarity rather than
speed: it runs outside the timed region.

A structure is a real Lie algebra by structure constants (0-based pairs
``i < j``) with an optional 1-form ``alpha`` and 2-form ``omega``.  The
conventions match the program's: d(alpha)(x, y) = -alpha([x, y]),
Phi(x) = i_x(omega) + alpha(x) alpha, and the left-symmetric product
solves Phi(x.y) = -Phi(y) o ad_x.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Optional

F = Fraction
ZERO = F(0)


@dataclass
class Structure:
    dim: int
    br: dict = field(default_factory=dict)  # (i, j), i < j -> tuple of Fractions
    alpha: Optional[tuple] = None
    omega: Optional[dict] = None  # (i, j), i < j -> Fraction


# ---------------------------------------------------------------------------
# Vectors, forms and brackets


def basis(n: int, k: int) -> tuple:
    return tuple(F(1) if i == k else ZERO for i in range(n))


def bracket(s: Structure, x, y) -> tuple:
    out = [ZERO] * s.dim
    ys = [(j, b) for j, b in enumerate(y) if b]
    for i, a in enumerate(x):
        if not a:
            continue
        for j, b in ys:
            if i < j and (i, j) in s.br:
                c, v = a * b, s.br[(i, j)]
            elif j < i and (j, i) in s.br:
                c, v = -a * b, s.br[(j, i)]
            else:
                continue
            for k, vk in enumerate(v):
                if vk:
                    out[k] += c * vk
    return tuple(out)


def one_form(alpha, x) -> Fraction:
    return sum((a * b for a, b in zip(alpha, x)), ZERO)


def two_form(omega, x, y) -> Fraction:
    total = ZERO
    for (i, j), c in omega.items():
        xi, xj, yi, yj = x[i], x[j], y[i], y[j]
        if (xi and yj) or (xj and yi):
            total += (xi * yj - xj * yi) * c
    return total


def jacobi_holds(s: Structure) -> bool:
    n = s.dim
    e = [basis(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [ZERO] * n
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, x in enumerate(bracket(s, bracket(s, e[a], e[b]), e[c])):
                        total[m] += x
                if any(total):
                    return False
    return True


def alpha_closed(s: Structure, alpha) -> bool:
    return all(one_form(alpha, v) == 0 for v in s.br.values())


def omega_closed(s: Structure, omega) -> bool:
    n = s.dim
    e = [basis(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = (
                    two_form(omega, bracket(s, e[i], e[j]), e[k])
                    + two_form(omega, bracket(s, e[j], e[k]), e[i])
                    + two_form(omega, bracket(s, e[k], e[i]), e[j])
                )
                if total:
                    return False
    return True


def phi_matrix(s: Structure) -> list:
    """M[k][l] = Phi(e_k)(e_l) = omega(e_k, e_l) + alpha_k alpha_l."""
    n = s.dim
    m = [[s.alpha[k] * s.alpha[l] for l in range(n)] for k in range(n)]
    for (i, j), c in s.omega.items():
        m[i][j] += c
        m[j][i] -= c
    return m


def is_cosymplectic(s: Structure) -> bool:
    return (
        s.dim % 2 == 1
        and jacobi_holds(s)
        and alpha_closed(s, s.alpha)
        and omega_closed(s, s.omega)
        and det(phi_matrix(s)) != 0
    )


def volume_matches(s: Structure, vol: Fraction) -> bool:
    """det Phi = (vol / m!)^2 for the coefficient vol of alpha ^ omega^m."""
    m = (s.dim - 1) // 2
    return (vol / factorial(m)) ** 2 == det(phi_matrix(s))


def is_reeb(s: Structure, xi) -> bool:
    n = s.dim
    return one_form(s.alpha, xi) == 1 and all(
        two_form(s.omega, xi, basis(n, l)) == 0 for l in range(n)
    )


def lsa_table(s: Structure) -> list:
    """table[i][j] = e_i . e_j, solving Phi(x.y) = -Phi(y) o ad_x."""
    n = s.dim
    m = phi_matrix(s)
    mt = [[m[k][l] for k in range(n)] for l in range(n)]
    e = [basis(n, i) for i in range(n)]
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            rhs = [-one_form(m[j], bracket(s, e[i], e[l])) for l in range(n)]
            row.append(tuple(solve(mt, rhs)))
        table.append(row)
    return table


# ---------------------------------------------------------------------------
# Exact linear algebra


def _eliminate(a: list) -> tuple:
    """Gauss-Jordan on a copy; returns (reduced rows, pivot columns, sign)."""
    a = [list(r) for r in a]
    rows = len(a)
    cols = len(a[0]) if a else 0
    pivots, sign, r = [], 1, 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append((c, pv))
        r += 1
        if r == rows:
            break
    return a, pivots, sign


def det(m: list) -> Fraction:
    n = len(m)
    _, pivots, sign = _eliminate(m)
    if len(pivots) != n or [c for c, _ in pivots] != list(range(n)):
        return ZERO
    out = F(sign)
    for _, pv in pivots:
        out *= pv
    return out


def solve(m: list, b: list) -> list:
    n = len(m)
    a, pivots, _ = _eliminate([list(row) + [b[i]] for i, row in enumerate(m)])
    if [c for c, _ in pivots] != list(range(n)):
        raise ZeroDivisionError("singular system")
    return [a[i][n] for i in range(n)]


def inverse(m: list) -> list:
    n = len(m)
    eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    a, pivots, _ = _eliminate([list(row) + eye[i] for i, row in enumerate(m)])
    if [c for c, _ in pivots] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in a]


# ---------------------------------------------------------------------------
# Change of basis: new basis f_p = sum_i P[i][p] e_i


def transform(s: Structure, p: list) -> Structure:
    n = s.dim
    q = inverse(p)
    cols = [tuple(p[i][c] for i in range(n)) for c in range(n)]
    br = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = bracket(s, cols[a], cols[b])
            if any(w):
                br[(a, b)] = tuple(one_form(q[r], w) for r in range(n))
    alpha = None if s.alpha is None else tuple(one_form(s.alpha, c) for c in cols)
    omega = None
    if s.omega is not None:
        omega = {}
        for a in range(n):
            for b in range(a + 1, n):
                c = two_form(s.omega, cols[a], cols[b])
                if c:
                    omega[(a, b)] = c
    return Structure(n, br, alpha, omega)


def direct_sum_abelian(s: Structure, k: int) -> Structure:
    """s + R^k with the extra basis vectors central (forms dropped)."""
    n = s.dim + k
    br = {ij: tuple(v) + (ZERO,) * k for ij, v in s.br.items()}
    return Structure(n, br)


# ---------------------------------------------------------------------------
# .alg text with coefficients linear in at most one symbol


def alg_text(s: Structure, sym: Optional[str] = None, s1: Optional[Structure] = None) -> str:
    """The .alg file of s + sym * s1.  An omega line takes a single
    coefficient token, so each omega coefficient may come from s or from
    s1 but not from both."""

    def terms(v0, v1):
        out = []
        for k in range(len(v0)):
            if v0[k]:
                out.append(f"{v0[k]} {k + 1}")
            if v1 is not None and v1[k]:
                out.append(f"{v1[k]}*{sym} {k + 1}")
        return " ".join(out)

    zero = (ZERO,) * s.dim
    lines = [f"dim {s.dim}"]
    pairs = sorted(set(s.br) | set(s1.br if s1 else ()))
    for (i, j) in pairs:
        v1 = s1.br.get((i, j), zero) if s1 else None
        lines.append(f"bracket {i + 1} {j + 1} : {terms(s.br.get((i, j), zero), v1)}")
    if s.alpha is not None:
        body = terms(s.alpha, s1.alpha if s1 and s1.alpha else None)
        if body:
            lines.append(f"alpha : {body}")
    omega1 = (s1.omega or {}) if s1 else {}
    for (i, j) in sorted(set(s.omega or {}) | set(omega1)):
        c0, c1 = (s.omega or {}).get((i, j), ZERO), omega1.get((i, j), ZERO)
        if c0 and c1:
            raise ValueError("omega coefficient needs two tokens")
        lines.append(f"omega {i + 1} {j + 1} : {c0 if c0 else f'{c1}*{sym}'}")
    return "\n".join(lines) + "\n"


_LINE = re.compile(r"\S+")


def parse_linear_alg(text: str) -> dict:
    """Read an .alg file whose coefficients are ``c``, ``sym`` or ``c*sym``.

    Returns {"dim", "br", "alpha", "omega"} where every coefficient is a
    dict {symbol or None: Fraction} (None is the constant part), so the
    structure can be instantiated at any assignment.
    """
    dim, br, alpha, omega = None, {}, {}, {}
    for raw in text.splitlines():
        toks = _LINE.findall(raw.split("#", 1)[0])
        if not toks:
            continue
        if toks[0] == "dim":
            dim = int(toks[1])
            continue
        colon = toks.index(":")
        head, body = toks[1:colon], toks[colon + 1 :]
        if toks[0] == "omega":
            omega[(int(head[0]) - 1, int(head[1]) - 1)] = _linear_coeff(body[0])
            continue
        comps: dict = {}
        for n in range(0, len(body), 2):
            k = int(body[n + 1]) - 1
            for name, c in _linear_coeff(body[n]).items():
                slot = comps.setdefault(k, {})
                slot[name] = slot.get(name, ZERO) + c
        if toks[0] == "bracket":
            br[(int(head[0]) - 1, int(head[1]) - 1)] = comps
        else:
            alpha = comps
    return {"dim": dim, "br": br, "alpha": alpha, "omega": omega}


def _linear_coeff(tok: str) -> dict:
    if "*" in tok:
        c, name = tok.split("*")
        return {name: F(c)}
    if tok[0].isalpha() or tok[0] == "_":
        return {tok: F(1)}
    return {None: F(tok)}


def symbols(lin: dict) -> list:
    found = set()
    for comps in list(lin["br"].values()) + [lin["alpha"]]:
        for coeff in comps.values():
            found.update(coeff)
    for coeff in lin["omega"].values():
        found.update(coeff)
    found.discard(None)
    return sorted(found)


def instantiate(lin: dict, values: dict, part: Optional[str] = None) -> Structure:
    """The structure at ``values``.  With ``part`` set to a symbol, returns
    instead the coefficient of that symbol (the other symbols at ``values``)."""

    def ev(coeff):
        if part is not None:
            return coeff.get(part, ZERO)
        return sum((c * (F(1) if name is None else values[name]) for name, c in coeff.items()), ZERO)

    n = lin["dim"]
    br = {}
    for ij, comps in lin["br"].items():
        v = tuple(ev(comps[k]) if k in comps else ZERO for k in range(n))
        if any(v):
            br[ij] = v
    alpha = tuple(ev(lin["alpha"][k]) if k in lin["alpha"] else ZERO for k in range(n))
    omega = {ij: ev(c) for ij, c in lin["omega"].items()}
    return Structure(n, br, alpha, {ij: c for ij, c in omega.items() if c})


# ---------------------------------------------------------------------------
# Reading the program's printed scalars and vectors

_OPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def eval_scalar(text: str, values: Optional[dict] = None) -> Fraction:
    """Exact value of a printed rational, polynomial or quotient such as
    ``(lam^2 - 1)/(lam + 3/2)`` at the given symbol values."""
    values = values or {}

    def walk(node):
        if isinstance(node, ast.Expression):
            return walk(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return F(node.value)
        if isinstance(node, ast.Name):
            return values[node.id]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = walk(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and type(node.op) in _OPS:
            return _OPS[type(node.op)](walk(node.left), walk(node.right))
        raise ValueError(f"unexpected scalar text {text!r}")

    return walk(ast.parse(text.replace("^", "**"), mode="eval"))


_TERM_END = re.compile(r"(?:^|\s)e\^?\{?(\d+)\}?(?= \+ |$)")


def parse_terms(text: str) -> list:
    """Split ``c1 e1 + c2 e3`` (or ``e^1``/``e^{12}`` forms) into
    (coefficient text, index text) pairs; a missing coefficient is 1."""
    if text.strip() == "0":
        return []
    out, start = [], 0
    for m in _TERM_END.finditer(text):
        coeff = text[start : m.start()].strip()
        if coeff.startswith("+"):  # the separator before every later term
            coeff = coeff[1:].strip()
        out.append((coeff or "1", m.group(1)))
        start = m.end()
    if text[start:].strip():
        raise ValueError(f"unparsed vector text {text!r}")
    return out


def parse_vec(text: str, dim: int, values: Optional[dict] = None) -> tuple:
    v = [ZERO] * dim
    for coeff, idx in parse_terms(text):
        v[int(idx) - 1] += eval_scalar(coeff, values)
    return tuple(v)
