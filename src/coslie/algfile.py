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

A catalog file (``parse_catalog``, the package's ``catalog.alg``) is a
sequence of entries, each an ``entry KIND NAME [ALIAS ...]`` line and an
algebra file after it, with keywords of its own::

    nondeg = a3*(a12 - a13)             # printed polynomial
    sample = a3=1, a12=1, a13=0         # bindings, as in --params
    deviation = nondeg z2_span          # names of known deviations

and sections, each started by a header line and holding lines of its own:
``normal LABEL`` (``alpha``/``omega``, ``reeb : 1/lam 3``, ``member = ...``
bindings of the entry's family, witness ``map i : ...`` columns and
``witness = p/q``, the lam of the normal side), ``lsa`` (``alpha``/``omega``,
``product i j : 1/lam^2 3`` for e_i . e_j, ``note = text``) and
``corrected`` (``bracket`` lines that replace or add to the entry's).  A
``nondeg``, ``reeb`` or ``product`` value is an expression: integers and
symbols under ``+ - * / ^`` and parentheses.
"""

from __future__ import annotations

import ast
import operator
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

# keyword: (basis indices before the separator, what follows it, the
# separator); two indices are a pair i < j but in a product line.  What
# follows is coefficient/index pairs ("pairs") or one coefficient ("one")
_GRAMMAR = {
    "bracket": (2, "pairs", ":"),
    "alpha": (0, "pairs", ":"),
    "omega": (2, "one", ":"),
    "phi": (1, "pairs", ":"),
    "lambda": (0, "pairs", ":"),
    "v": (0, "pairs", ":"),
    "t": (0, "one", "="),
    "theta": (2, "one", ":"),
    "map": (1, "pairs", ":"),
}
_TAKES = ("no indices before '{}'", "one column index", "two indices")
_RESERVED = {"dim", "param", *_GRAMMAR}
# Catalog files only; these words stay free as symbols elsewhere.  What
# follows may also be pairs with expression coefficients ("exprs"), one
# expression ("expr"), bindings name=p/q,... ("params") or text
_GRAMMAR |= {
    "nondeg": (0, "expr", "="),
    "sample": (0, "params", "="),
    "deviation": (0, "text", "="),
    "reeb": (0, "exprs", ":"),
    "member": (0, "params", "="),
    "witness": (0, "one", "="),
    "product": (2, "exprs", ":"),
    "note": (0, "text", "="),
}
# the keywords of a catalog entry's own lines, and of the sections that a
# header line starts: (words after the header keyword, keywords)
_ENTRY = ("bracket", "alpha", "omega", "nondeg", "sample", "deviation")
_SECTIONS = {
    "normal": (1, ("alpha", "omega", "reeb", "member", "map", "witness")),
    "lsa": (0, ("alpha", "omega", "product", "note")),
    "corrected": (0, ("bracket",)),
}
_ARITH = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv}


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


@dataclass
class ParsedEntry:
    head: list      # the words after 'entry': kind, name, aliases
    dim: int
    lines: dict     # keyword -> {0-based indices: value}, as _Reader.lines
    sections: list  # (header words, lines) of each section, in file order


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
    """The bindings ``name=p/q,...`` of ``--params``, each name once and a
    symbol."""
    params: dict = {}
    for piece in filter(None, (p.strip() for p in text.split(","))):
        name, eq, value = piece.partition("=")
        if not eq:
            raise AlgFileError(f"bad --params piece '{piece}'", 0, 0)
        name = name.strip()
        if not _SYMBOL.fullmatch(name):
            raise AlgFileError(f"bad parameter name '{name}'", 0, 0)
        if name in params:
            raise AlgFileError(f"--params gives '{name}' twice", 0, 0)
        params[name] = parse_rational(value.strip())
    return params


class _Reader:
    """One file read by ``_GRAMMAR``, for the keywords of one file kind.

    ``lines[key][idx]`` is the key line with 0-based basis indices idx: a
    list of dim values (coefficient/index pairs), or one value.  Values are
    bound by ``params`` and the ``param`` lines, which may come after their
    use; ``symbols`` are the names the coefficients use.  A header line of
    ``sections`` starts a section, which collects the lines after it in
    lines of its own; ``self.sections`` lists (header words, lines).  The
    text's first line is line ``first``."""

    def __init__(
        self, text: str, params: Optional[dict], keywords: tuple, sections=None, first=1
    ):
        self.dim: Optional[int] = None
        self.params: dict = dict(params or {})
        self.symbols: set = set()
        self.lines = lines = {key: {} for key in keywords}
        self.sections: list = []
        body = []
        for lineno, raw in enumerate(text.splitlines(), start=first):
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
            elif key in (sections or ()):
                count, keys = sections[key]
                if len(words) != count + 1:
                    raise self.error(f"{key} takes {count} word(s)", 0)
                if any(head == words for head, _ in self.sections):
                    raise self.error(" ".join(words) + " given twice", 0)
                lines = {k: {} for k in keys}
                self.sections.append((words, lines))
            elif key not in lines:
                raise self.error(f"unknown keyword '{key}'", 0)
            elif self.dim is None:
                raise self.error("dim must come first", 0)
            else:
                body.append((self.at, words, lines))
        if self.dim is None:
            raise AlgFileError("missing dim line", first - 1, 0)
        for self.at, words, lines in body:
            self._line(words, lines[words[0]])

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

    def _line(self, words, lines: dict):
        """Read the key line words into lines, the lines of its key."""
        key = words[0]
        count, value, sep = _GRAMMAR[key]
        try:
            s = words.index(sep, 1)
        except ValueError:
            raise self.error(f"expected '{sep}'", len(words) - 1 or None) from None
        if s != count + 1:
            raise self.error(f"{key} takes " + _TAKES[count].format(sep), 0)
        idx = tuple(self._index(words, k) for k in range(1, s))
        if count == 2 and key != "product" and idx[0] >= idx[1]:
            i, j = idx[0] + 1, idx[1] + 1
            raise self.error(f"{key} indices must satisfy i < j, got {i} {j}", 1, IndexOutOfRange)
        if idx in lines:
            kind = DuplicateBracket if key == "bracket" else AlgFileError
            raise self.error(" ".join(words[:s]) + " given twice", 0, kind)
        n = len(words) - s - 1
        if value in ("expr", "params", "text"):
            if not n:
                raise self.error(f"{key} needs a value", None)
            rest = " ".join(words[s + 1:])
            if value == "expr":
                lines[idx] = self._expr(rest, s + 1)
            elif value == "text":
                lines[idx] = rest
            else:
                try:
                    lines[idx] = parse_params(rest)
                except AlgFileError as exc:
                    raise self.error(exc.message, s + 1) from None
            return
        if value == "one":
            if n != 1:
                raise self.error(f"{key} takes one coefficient", 0)
            lines[idx] = self._coeff(words, s + 1)
            return
        if not n or n % 2:
            raise self.error(f"{key} needs coefficient/index pairs", s + 1 if n else None)
        v = [sc.ZERO] * self.dim
        for k in range(s + 1, len(words), 2):
            c = self._expr(words[k], k) if value == "exprs" else self._coeff(words, k)
            i = self._index(words, k + 1)
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
        return sc.Poly((name,), {(1,): value})

    def _expr(self, text: str, k: int) -> Scalar:
        """The value of the expression text at word k: integers and symbols
        under + - * / ^ and parentheses, as ``a23*(a4*a15 + a5*a23)`` or
        ``1/lam^2``."""

        def value(node):
            if isinstance(node, ast.BinOp) and type(node.op) in _ARITH:
                return _ARITH[type(node.op)](value(node.left), value(node.right))
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.Pow)
                and isinstance(node.right, ast.Constant)
                and type(node.right.value) is int
            ):
                return value(node.left) ** node.right.value
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
                return -value(node.operand)
            if isinstance(node, ast.Constant) and type(node.value) is int:
                return Fraction(node.value)
            if isinstance(node, ast.Name):
                self.symbols.add(node.id)
                return self.params[node.id] if node.id in self.params else sc.Poly.var(node.id)
            raise ValueError(node)

        try:
            return value(ast.parse(text.replace("^", "**"), mode="eval").body)
        except (SyntaxError, ValueError, TypeError, ZeroDivisionError):
            raise self.error(f"bad expression '{text}'", k) from None

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


def parse_catalog(text: str) -> list:
    """The entries of a catalog file, each read from its ``entry`` line to
    the next like an algebra file, with the catalog keywords and sections."""
    rows = text.splitlines()
    starts = [n for n, row in enumerate(rows) if row.split("#", 1)[0].split()[:1] == ["entry"]]
    for n, row in enumerate(rows[: starts[0] if starts else None]):
        if row.split("#", 1)[0].strip():
            raise AlgFileError("expected an entry line", n + 1, 1)
    entries = []
    for a, b in zip(starts, starts[1:] + [len(rows)]):
        head = rows[a].split("#", 1)[0].split()[1:]
        if len(head) < 2:
            raise AlgFileError("entry takes a kind and a name", a + 1, 1)
        r = _Reader("\n".join(rows[a + 1:b]), None, _ENTRY, _SECTIONS, first=a + 2)
        entries.append(ParsedEntry(head, r.dim, r.lines, r.sections))
    return entries


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
    raise ValueError(f"coefficient {c} has no single-token file form")


def format_algebra(
    algebra: LieAlgebra,
    alpha: Optional[OneForm] = None,
    omega: Optional[TwoForm] = None,
    params: Optional[dict] = None,
) -> str:
    def pairs(v) -> str:
        return " ".join(f"{_coeff_token(c)} {k + 1}" for k, c in enumerate(v) if c)

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
