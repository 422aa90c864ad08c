"""Line-based text format for algebras, forms and extension data.

    dim N
    bracket i j : c1 k1 [c2 k2 ...]     # [e_i, e_j] = sum c e_k, i < j
    alpha : c1 i1 [c2 i2 ...]
    omega i j : c                       # coefficient of e^{ij}, i < j
    param name = p/q

Extension-data files reuse the grammar with ``phi i : c1 k1 ...`` (the
image of e_i), ``lambda : ...``, ``v : ...``, ``t = c`` and
``theta i j : c``; isomorphism-witness files use ``map i : c1 k1 ...``.

A coefficient token is a rational ``p/q``, a symbol, or ``rational*symbol``
(e.g. ``2*a24``); unbound symbols become polynomial variables, ``param``
lines bind them.  Each parser also takes the bindings of a command line
(``params``); binding one name twice, by a repeated ``param`` line or by a
line and ``params``, is an error.  ``#`` starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import scalars as sc
from .errors import AlgFileError, DuplicateBracket, IndexOutOfRange
from .exterior import OneForm, TwoForm
from .extensions import ExtensionData
from .lie_core import LieAlgebra, LinearMap
from .scalars import Scalar

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")
_SYMBOL = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_PRODUCT = re.compile(r"^([+-]?\d+(?:/\d+)?)\*([A-Za-z_][A-Za-z0-9_]*)$")

_RESERVED = {"dim", "bracket", "alpha", "omega", "param", "phi", "lambda", "v", "t", "theta", "map"}


@dataclass
class ParsedAlgebra:
    algebra: LieAlgebra
    alpha: Optional[OneForm]
    omega: Optional[TwoForm]
    params: dict = field(default_factory=dict)
    symbols: frozenset = frozenset()


@dataclass
class ParsedExtension:
    dim: int
    data: ExtensionData
    params: dict = field(default_factory=dict)
    symbols: frozenset = frozenset()


@dataclass
class ParsedMap:
    dim: int
    map: LinearMap
    params: dict = field(default_factory=dict)
    symbols: frozenset = frozenset()


def _tokens(line: str):
    out = []
    for m in re.finditer(r"\S+", line):
        out.append((m.group(0), m.start() + 1))
    return out


def _rational(tok: str, lineno: int, col: int) -> Fraction:
    """The rational that tok spells; AlgFileError at (lineno, col) when it
    spells none or has a zero denominator."""
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise AlgFileError(f"bad rational '{tok}'", lineno, col) from None


def _coeff(tok: str, lineno: int, col: int) -> Scalar:
    if _RATIONAL.match(tok):
        return _rational(tok, lineno, col)
    m = _PRODUCT.match(tok)
    if m:
        return _rational(m.group(1), lineno, col) * sc.Poly.var(m.group(2))
    if _SYMBOL.match(tok):
        if tok in _RESERVED:
            raise AlgFileError(f"'{tok}' cannot be used as a symbol", lineno, col)
        return sc.Poly.var(tok)
    raise AlgFileError(f"bad coefficient token '{tok}'", lineno, col)


def _index(tok: str, dim: int, lineno: int, col: int) -> int:
    if not tok.isdecimal():
        raise AlgFileError(f"expected basis index, got '{tok}'", lineno, col)
    k = int(tok)
    if not (1 <= k <= dim):
        raise IndexOutOfRange(f"index {k} outside 1..{dim}", lineno, col)
    return k


def _split_colon(toks, lineno):
    for pos, (t, _) in enumerate(toks):
        if t == ":":
            return toks[:pos], toks[pos + 1 :]
    raise AlgFileError("expected ':'", lineno, toks[-1][1] if toks else 0)


def _pairs(after, dim, lineno, what):
    if len(after) % 2 != 0 or not after:
        raise AlgFileError(
            f"{what} needs coefficient/index pairs", lineno, after[0][1] if after else 0
        )
    out = []
    for n in range(0, len(after), 2):
        ctok, ccol = after[n]
        ktok, kcol = after[n + 1]
        out.append((_coeff(ctok, lineno, ccol), _index(ktok, dim, lineno, kcol)))
    return out


class _Reader:
    """Shared line reader and binder; subclasses declare which keywords
    they accept."""

    keywords: tuple = ()

    def __init__(self, text: str, params: Optional[dict] = None):
        self.dim: Optional[int] = None
        self.params: dict = dict(params or {})
        self.symbols: set = set()
        self.lines: list = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            toks = _tokens(line)
            key, col = toks[0]
            if key == "dim":
                if self.dim is not None:
                    raise AlgFileError("duplicate dim line", lineno, col)
                if len(toks) != 2 or not toks[1][0].isdecimal():
                    raise AlgFileError("dim takes one integer", lineno, col)
                self.dim = int(toks[1][0])
                if self.dim <= 0:
                    raise AlgFileError("dim must be positive", lineno, col)
                continue
            if key == "param":
                if len(toks) != 4 or toks[2][0] != "=":
                    raise AlgFileError("param syntax: param name = p/q", lineno, col)
                name, ncol = toks[1]
                if not _SYMBOL.match(name):
                    raise AlgFileError(f"bad parameter name '{name}'", lineno, ncol)
                if name in self.params:
                    raise AlgFileError(f"parameter '{name}' bound twice", lineno, ncol)
                vtok, vcol = toks[3]
                if not _RATIONAL.match(vtok):
                    raise AlgFileError(f"bad parameter value '{vtok}'", lineno, vcol)
                self.params[name] = _rational(vtok, lineno, vcol)
                continue
            if key not in self.keywords:
                raise AlgFileError(f"unknown keyword '{key}'", lineno, col)
            if self.dim is None:
                raise AlgFileError("dim must come first", lineno, col)
            self.lines.append((lineno, key, toks))

    def require_dim(self) -> int:
        if self.dim is None:
            raise AlgFileError("missing dim line", 0, 0)
        return self.dim

    def bind(self, value: Scalar) -> Scalar:
        """value with every bound name substituted; records its symbols."""
        self.symbols |= sc.scalar_variables(value)
        return sc.scalar_subs(value, self.params)


def parse_algebra(text: str, params: Optional[dict] = None) -> ParsedAlgebra:
    reader = _AlgReader(text, params)
    dim = reader.require_dim()
    brackets: dict = {}
    alpha_comps: Optional[list] = None
    omega_comps: dict = {}
    omega_seen = set()
    for lineno, key, toks in reader.lines:
        before, after = _split_colon(toks[1:], lineno)
        if key == "bracket":
            if len(before) != 2:
                raise AlgFileError("bracket takes two indices", lineno, toks[0][1])
            i = _index(before[0][0], dim, lineno, before[0][1])
            j = _index(before[1][0], dim, lineno, before[1][1])
            if i == j:
                raise IndexOutOfRange(f"self-bracket [e{i}, e{i}]", lineno, before[0][1])
            if i > j:
                raise IndexOutOfRange(
                    f"bracket indices must satisfy i < j, got {i} {j}", lineno, before[0][1]
                )
            if (i, j) in brackets:
                raise DuplicateBracket(f"bracket {i} {j} given twice", lineno, toks[0][1])
            comps: dict = {}
            for c, k in _pairs(after, dim, lineno, "bracket"):
                comps[k] = comps.get(k, sc.ZERO) + c
            brackets[(i, j)] = comps
        elif key == "alpha":
            if before:
                raise AlgFileError("alpha takes no indices before ':'", lineno, toks[0][1])
            if alpha_comps is not None:
                raise AlgFileError("duplicate alpha line", lineno, toks[0][1])
            alpha_comps = _pairs(after, dim, lineno, "alpha")
        elif key == "omega":
            if len(before) != 2:
                raise AlgFileError("omega takes two indices", lineno, toks[0][1])
            i = _index(before[0][0], dim, lineno, before[0][1])
            j = _index(before[1][0], dim, lineno, before[1][1])
            if i >= j:
                raise IndexOutOfRange(
                    f"omega indices must satisfy i < j, got {i} {j}", lineno, before[0][1]
                )
            if (i, j) in omega_seen:
                raise AlgFileError(f"omega {i} {j} given twice", lineno, toks[0][1])
            omega_seen.add((i, j))
            if len(after) != 1:
                raise AlgFileError("omega takes one coefficient", lineno, toks[0][1])
            omega_comps[(i, j)] = _coeff(after[0][0], lineno, after[0][1])
    bind = reader.bind
    table = {
        ij: {k: bind(c) for k, c in comps.items()} for ij, comps in brackets.items()
    }
    algebra = LieAlgebra.from_table(dim, table)
    alpha = None
    if alpha_comps is not None:
        comps: dict = {}
        for c, k in alpha_comps:
            comps[k] = comps.get(k, sc.ZERO) + bind(c)
        alpha = OneForm.from_dict(dim, comps)
    omega = None
    if omega_comps:
        omega = TwoForm.from_dict(dim, {ij: bind(c) for ij, c in omega_comps.items()})
    return ParsedAlgebra(algebra, alpha, omega, reader.params, frozenset(reader.symbols))


class _AlgReader(_Reader):
    keywords = ("bracket", "alpha", "omega")


class _ExtReader(_Reader):
    keywords = ("phi", "lambda", "v", "t", "theta")


class _MapReader(_Reader):
    keywords = ("map",)


def parse_extension(text: str, params: Optional[dict] = None) -> ParsedExtension:
    reader = _ExtReader(text, params)
    dim = reader.require_dim()
    bind = reader.bind
    phi_cols = [list(sc.zero_vec(dim)) for _ in range(dim)]
    lam: dict = {}
    v = list(sc.zero_vec(dim))
    t: Scalar = sc.ZERO
    theta: dict = {}
    for lineno, key, toks in reader.lines:
        if key == "t":
            if len(toks) != 3 or toks[1][0] != "=":
                raise AlgFileError("t syntax: t = c", lineno, toks[0][1])
            t = bind(_coeff(toks[2][0], lineno, toks[2][1]))
            continue
        before, after = _split_colon(toks[1:], lineno)
        if key == "phi":
            if len(before) != 1:
                raise AlgFileError("phi takes one column index", lineno, toks[0][1])
            i = _index(before[0][0], dim, lineno, before[0][1])
            for c, k in _pairs(after, dim, lineno, "phi"):
                phi_cols[i - 1][k - 1] += bind(c)
        elif key == "lambda":
            for c, k in _pairs(after, dim, lineno, "lambda"):
                lam[k] = lam.get(k, sc.ZERO) + bind(c)
        elif key == "v":
            for c, k in _pairs(after, dim, lineno, "v"):
                v[k - 1] += bind(c)
        elif key == "theta":
            if len(before) != 2:
                raise AlgFileError("theta takes two indices", lineno, toks[0][1])
            i = _index(before[0][0], dim, lineno, before[0][1])
            j = _index(before[1][0], dim, lineno, before[1][1])
            if i >= j:
                raise IndexOutOfRange("theta indices must satisfy i < j", lineno, before[0][1])
            if len(after) != 1:
                raise AlgFileError("theta takes one coefficient", lineno, toks[0][1])
            theta[(i, j)] = bind(_coeff(after[0][0], lineno, after[0][1]))
    data = ExtensionData(
        LinearMap.from_columns([tuple(col) for col in phi_cols]),
        OneForm.from_dict(dim, lam),
        tuple(v),
        t,
        TwoForm.from_dict(dim, theta),
    )
    return ParsedExtension(dim, data, reader.params, frozenset(reader.symbols))


def parse_map(text: str, params: Optional[dict] = None) -> ParsedMap:
    reader = _MapReader(text, params)
    dim = reader.require_dim()
    cols = [list(sc.zero_vec(dim)) for _ in range(dim)]
    for lineno, key, toks in reader.lines:
        before, after = _split_colon(toks[1:], lineno)
        if len(before) != 1:
            raise AlgFileError("map takes one column index", lineno, toks[0][1])
        i = _index(before[0][0], dim, lineno, before[0][1])
        for c, k in _pairs(after, dim, lineno, "map"):
            cols[i - 1][k - 1] += reader.bind(c)
    witness = LinearMap.from_columns([tuple(c) for c in cols])
    return ParsedMap(dim, witness, reader.params, frozenset(reader.symbols))


# ---------------------------------------------------------------------------
# Printing


def _coeff_token(c: Scalar) -> str:
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, sc.Poly) and len(c.terms) == 1:
        (exp, coef), = c.terms.items()
        if sum(exp) == 1:
            name = c.variables[exp.index(1)]
            return name if coef == 1 else f"{coef}*{name}"
        if sum(exp) == 0:
            return str(coef)
    raise ValueError(f"coefficient {c} has no single-token file form")


def format_algebra(
    algebra: LieAlgebra,
    alpha: Optional[OneForm] = None,
    omega: Optional[TwoForm] = None,
    params: Optional[dict] = None,
) -> str:
    lines = [f"dim {algebra.dim}"]
    for (i, j) in sorted(algebra.brackets):
        v = algebra.brackets[(i, j)]
        parts = []
        for k, c in enumerate(v):
            if not sc.is_zero(c):
                parts.append(f"{_coeff_token(c)} {k + 1}")
        lines.append(f"bracket {i + 1} {j + 1} : " + " ".join(parts))
    if alpha is not None and not alpha.is_zero():
        parts = []
        for k, c in enumerate(alpha.coeffs):
            if not sc.is_zero(c):
                parts.append(f"{_coeff_token(c)} {k + 1}")
        lines.append("alpha : " + " ".join(parts))
    if omega is not None:
        for (i, j), c in sorted(omega.coeffs.items()):
            lines.append(f"omega {i + 1} {j + 1} : {_coeff_token(c)}")
    for name in sorted(params or {}):
        lines.append(f"param {name} = {params[name]}")
    return "\n".join(lines) + "\n"
