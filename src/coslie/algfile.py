"""Line-based text format for algebras, forms and extension data.

    dim N
    bracket i j : c1 k1 [c2 k2 ...]     # [e_i, e_j] = sum c e_k, i < j
    alpha : c1 i1 [c2 i2 ...]
    omega i j : c                       # coefficient of e^{ij}, i < j
    param name = p/q

Extension-data files reuse the grammar with ``phi i : c1 k1 ...`` (the
image of e_i), ``lambda : ...``, ``v : ...``, ``t = c`` and
``theta i j : c``; isomorphism-witness files use ``map i : c1 k1 ...``.
``_GRAMMAR`` states every keyword's line.  A keyword line appears at most
once per index set (one ``alpha`` line, one ``bracket 1 2`` line, one
``phi 1`` line); a repeat is an error.

A coefficient token is a rational ``p/q``, a symbol, or ``rational*symbol``
(e.g. ``2*a24``); unbound symbols become polynomial variables, ``param``
lines bind them.  Each parser also takes the bindings of a command line
(``params``, read from ``--params`` by ``parse_params``); binding one name
twice, by a repeated ``param`` line or by a line and ``params``, is an
error.  Every value, of a ``param`` line, ``--params`` or ``--alpha-d``,
is a rational ``p/q`` with a nonzero denominator.  ``#`` starts a comment.
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

_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")
_SYMBOL = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PRODUCT = re.compile(r"([+-]?\d+(?:/\d+)?)\*([A-Za-z_][A-Za-z0-9_]*)")
_TOKEN = re.compile(r"\S+")

# keyword: (basis indices before the separator, whether one coefficient
# follows it rather than coefficient/index pairs, the separator); two
# indices are a pair i < j
_GRAMMAR = {
    "bracket": (2, False, ":"),
    "alpha": (0, False, ":"),
    "omega": (2, True, ":"),
    "phi": (1, False, ":"),
    "lambda": (0, False, ":"),
    "v": (0, False, ":"),
    "t": (0, True, "="),
    "theta": (2, True, ":"),
    "map": (1, False, ":"),
}
_TAKES = ("no indices before '{}'", "one column index", "two indices")
_RESERVED = {"dim", "param", *_GRAMMAR}


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


def _rational(tok: str) -> Optional[Fraction]:
    """The rational that tok spells as p/q; None when it spells none or has
    a zero denominator."""
    m = _RATIONAL.fullmatch(tok)
    if m is None:
        return None
    num, den = m.groups()
    if den is None:
        return Fraction(int(num))
    return Fraction(int(num), int(den)) if int(den) else None


def parse_rational(tok: str) -> Fraction:
    """A command-line value (``--params``, ``--alpha-d``): p/q, as in a
    ``param`` line; AlgFileError at line 0, column 0 otherwise."""
    value = _rational(tok)
    if value is None:
        raise AlgFileError(f"bad rational '{tok}'", 0, 0)
    return value


def parse_params(text: str) -> dict:
    """The bindings ``name=p/q,...`` of ``--params``, each name once."""
    params: dict = {}
    for piece in filter(None, (p.strip() for p in text.split(","))):
        name, eq, value = piece.partition("=")
        if not eq:
            raise AlgFileError(f"bad --params piece '{piece}'", 0, 0)
        name = name.strip()
        if name in params:
            raise AlgFileError(f"--params gives '{name}' twice", 0, 0)
        params[name] = parse_rational(value.strip())
    return params


class _Reader:
    """One file read by ``_GRAMMAR``, for the keywords of one file kind.

    ``lines[key][idx]`` is the key line with 0-based basis indices idx: a
    list of dim values (coefficient/index pairs), or one value.  Values are
    bound by ``params`` and the ``param`` lines, which may come after their
    use; ``symbols`` are the names the coefficients use."""

    def __init__(self, text: str, params: Optional[dict], keywords: tuple):
        self.dim: Optional[int] = None
        self.params: dict = dict(params or {})
        self.symbols: set = set()
        self.lines: dict = {key: {} for key in keywords}
        body = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0]
            words = line.split()
            if not words:
                continue
            self.at = (lineno, line)
            key = words[0]
            if key == "dim":
                if self.dim is not None:
                    raise self.error("duplicate dim line", 0)
                if len(words) != 2 or not words[1].isdecimal():
                    raise self.error("dim takes one integer", 0)
                self.dim = int(words[1])
                if self.dim <= 0:
                    raise self.error("dim must be positive", 0)
            elif key == "param":
                self._param(words)
            elif key not in self.lines:
                raise self.error(f"unknown keyword '{key}'", 0)
            elif self.dim is None:
                raise self.error("dim must come first", 0)
            else:
                body.append((self.at, words))
        if self.dim is None:
            raise AlgFileError("missing dim line", 0, 0)
        for at, words in body:
            self.at = at
            self._line(words)

    def error(self, message: str, k: Optional[int], kind=AlgFileError) -> AlgFileError:
        """kind(message) at the current line and its word k (column 0 when
        k is None)."""
        lineno, line = self.at
        col = 0 if k is None else [m.start() + 1 for m in _TOKEN.finditer(line)][k]
        return kind(message, lineno, col)

    def _param(self, words):
        if len(words) != 4 or words[2] != "=":
            raise self.error("param syntax: param name = p/q", 0)
        name = words[1]
        if not _SYMBOL.fullmatch(name):
            raise self.error(f"bad parameter name '{name}'", 1)
        if name in self.params:
            raise self.error(f"parameter '{name}' bound twice", 1)
        self.params[name] = self._rational(words[3], 3)

    def _line(self, words):
        key = words[0]
        count, single, sep = _GRAMMAR[key]
        try:
            s = words.index(sep, 1)
        except ValueError:
            raise self.error(f"expected '{sep}'", len(words) - 1 or None) from None
        if s != count + 1:
            raise self.error(f"{key} takes " + _TAKES[count].format(sep), 0)
        idx = tuple(self._index(words, k) for k in range(1, s))
        if count == 2 and idx[0] >= idx[1]:
            i, j = idx[0] + 1, idx[1] + 1
            raise self.error(f"{key} indices must satisfy i < j, got {i} {j}", 1, IndexOutOfRange)
        lines = self.lines[key]
        if idx in lines:
            kind = DuplicateBracket if key == "bracket" else AlgFileError
            raise self.error(" ".join(words[:s]) + " given twice", 0, kind)
        n = len(words) - s - 1
        if single:
            if n != 1:
                raise self.error(f"{key} takes one coefficient", 0)
            lines[idx] = self._coeff(words, s + 1)
            return
        if not n or n % 2:
            raise self.error(f"{key} needs coefficient/index pairs", s + 1 if n else None)
        v = [sc.ZERO] * self.dim
        for k in range(s + 1, len(words), 2):
            c, i = self._coeff(words, k), self._index(words, k + 1)
            v[i] = c if v[i] is sc.ZERO else v[i] + c  # a slot's first value is not added to 0
        lines[idx] = v

    def _index(self, words, k) -> int:
        """The 0-based basis index that word k names."""
        tok = words[k]
        if not tok.isdecimal():
            raise self.error(f"expected basis index, got '{tok}'", k)
        i = int(tok)
        if not 1 <= i <= self.dim:
            raise self.error(f"index {i} outside 1..{self.dim}", k, IndexOutOfRange)
        return i - 1

    def _rational(self, tok: str, k: int) -> Fraction:
        value = _rational(tok)
        if value is None:
            raise self.error(f"bad rational '{tok}'", k)
        return value

    def _coeff(self, words, k) -> Scalar:
        """The value of the coefficient at word k, its symbol bound."""
        tok, name = words[k], None
        if not _RATIONAL.fullmatch(tok):
            m = _PRODUCT.fullmatch(tok)
            if m:
                tok, name = m.groups()
            elif not _SYMBOL.fullmatch(tok):
                raise self.error(f"bad coefficient token '{tok}'", k)
            elif tok in _RESERVED:
                raise self.error(f"'{tok}' cannot be used as a symbol", k)
            else:
                tok, name = "1", tok
        value = self._rational(tok, k)
        if name is None:
            return value
        self.symbols.add(name)
        if name in self.params:
            return value * self.params[name]
        return value * sc.Poly.var(name) if value else value

    def columns(self, key: str) -> list:
        """The column lines of key (``phi i``, ``map i``) as a list."""
        zero = sc.zero_vec(self.dim)
        return [self.lines[key].get((i,), zero) for i in range(self.dim)]


def parse_algebra(text: str, params: Optional[dict] = None) -> ParsedAlgebra:
    r = _Reader(text, params, ("bracket", "alpha", "omega"))
    alpha, omega = r.lines["alpha"].get(()), r.lines["omega"]
    return ParsedAlgebra(
        LieAlgebra(r.dim, r.lines["bracket"]),
        None if alpha is None else OneForm(r.dim, alpha),
        TwoForm(r.dim, omega) if omega else None,
        r.params,
        frozenset(r.symbols),
    )


def parse_extension(text: str, params: Optional[dict] = None) -> ParsedExtension:
    r = _Reader(text, params, ("phi", "lambda", "v", "t", "theta"))
    zero = sc.zero_vec(r.dim)
    data = ExtensionData(
        LinearMap.from_columns(r.columns("phi")),
        OneForm(r.dim, r.lines["lambda"].get((), zero)),
        r.lines["v"].get((), zero),
        r.lines["t"].get((), sc.ZERO),
        TwoForm(r.dim, r.lines["theta"]),
    )
    return ParsedExtension(r.dim, data, r.params, frozenset(r.symbols))


def parse_map(text: str, params: Optional[dict] = None) -> ParsedMap:
    r = _Reader(text, params, ("map",))
    witness = LinearMap.from_columns(r.columns("map"))
    return ParsedMap(r.dim, witness, r.params, frozenset(r.symbols))


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
    def pairs(v) -> str:
        return " ".join(f"{_coeff_token(c)} {k + 1}" for k, c in enumerate(v) if not sc.is_zero(c))

    lines = [f"dim {algebra.dim}"]
    for (i, j), v in sorted(algebra.brackets.items()):
        lines.append(f"bracket {i + 1} {j + 1} : {pairs(v)}")
    if alpha is not None and not alpha.is_zero():
        lines.append(f"alpha : {pairs(alpha.coeffs)}")
    if omega is not None:
        for (i, j), c in sorted(omega.coeffs.items()):
            lines.append(f"omega {i + 1} {j + 1} : {_coeff_token(c)}")
    for name in sorted(params or {}):
        lines.append(f"param {name} = {params[name]}")
    return "\n".join(lines) + "\n"
