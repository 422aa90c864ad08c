"""Exact scalar arithmetic and linear algebra.

Scalars form a small tower: ``Fraction`` (arbitrary-precision rationals),
``Poly`` (multivariate polynomials over the rationals) and ``RatFn``
(quotients of polynomials, used where linear solving over a polynomial
ring forces division).  All arithmetic is exact; nothing here ever touches
floating point.

Every value has one representation: a rational is always a ``Fraction``,
a ``Poly`` always has a variable, and a ``RatFn`` always has a ``Poly``
denominator.  Polynomials keep a canonical form at all times: variables
sorted by name, no zero coefficients, unused variables pruned.  Printing
uses graded lexicographic order (descending), so equal polynomials print
identically, which the CLI relies on for byte-reproducible reports.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .errors import (
    DimensionMismatch,
    InexactDivision,
    MissingVariable,
    ParametricUnsupported,
    SingularSystem,
)

Scalar = Union[Fraction, "Poly", "RatFn"]

ZERO = Fraction(0)
ONE = Fraction(1)


def _rational(value):
    """value itself when it is an int or a Fraction: either one keeps a
    Fraction coefficient a Fraction under +, - and *."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"cannot coerce {value!r} to a rational")


def _as_fraction(value) -> Fraction:
    value = _rational(value)
    return value if isinstance(value, Fraction) else Fraction(value)


class Poly:
    """Multivariate polynomial with Fraction coefficients and at least one
    variable: a constant is a Fraction, never a Poly.

    ``variables`` is a sorted tuple of names, each used by some term;
    ``terms`` maps exponent tuples (one slot per variable) to nonzero
    Fractions.  ``Poly(...)`` and every result of arithmetic, ``subs`` and
    ``exact_div`` that has no variable left is its Fraction value.
    """

    __slots__ = ("variables", "terms")

    def __new__(cls, variables: Sequence[str], terms: Mapping[tuple, Fraction]):
        variables = tuple(variables)
        terms = {e: _as_fraction(c) for e, c in terms.items()}
        if list(variables) != sorted(variables):
            order = sorted(range(len(variables)), key=variables.__getitem__)
            variables = tuple(variables[i] for i in order)
            terms = {tuple(e[i] for i in order): c for e, c in terms.items()}
        return cls._trusted(variables, terms)

    @classmethod
    def _trusted(cls, variables: tuple, terms: dict) -> Scalar:
        """The value of terms over variables, whose names are sorted and
        whose coefficients are Fractions already: drop zero coefficients
        and prune the variables that no term uses, and check nothing else.
        Without a variable left, the Fraction value of the constant term."""
        clean = {e: c for e, c in terms.items() if c}
        used = [i for i, col in enumerate(zip(*clean)) if any(col)]
        if not used:
            return next(iter(clean.values()), ZERO)
        if len(used) != len(variables):
            variables = tuple(variables[i] for i in used)
            clean = {tuple(e[i] for i in used): c for e, c in clean.items()}
        out = object.__new__(cls)
        out.variables = variables
        out.terms = clean
        return out

    # -- constructors -------------------------------------------------
    @staticmethod
    def var(name: str) -> "Poly":
        return Poly((name,), {(1,): ONE})

    # -- structure ----------------------------------------------------
    def total_degree(self) -> int:
        return max(sum(e) for e in self.terms)

    def __eq__(self, other) -> bool:
        # a Poly is never equal to a rational; a RatFn compares reflected
        if isinstance(other, Poly):
            return self.variables == other.variables and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- arithmetic ---------------------------------------------------
    def _aligned(self, other: "Poly"):
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        names = sorted(set(self.variables) | set(other.variables))

        def remap(p: Poly):
            idx = [p.variables.index(n) if n in p.variables else None for n in names]
            out = {}
            for e, c in p.terms.items():
                out[tuple(e[i] if i is not None else 0 for i in idx)] = c
            return out

        return tuple(names), remap(self), remap(other)

    def _shift(self, c) -> "Poly":
        """self + c for a rational c: only the constant term moves."""
        if not c:
            return self
        out = dict(self.terms)
        key = (0,) * len(self.variables)
        out[key] = out.get(key, ZERO) + c
        return Poly._trusted(self.variables, out)

    def __add__(self, other):
        if isinstance(other, RatFn):
            return other + self
        if not isinstance(other, Poly):
            return self._shift(_rational(other))
        names, a, b = self._aligned(other)
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, ZERO) + c
        return Poly._trusted(names, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (Poly, RatFn)):
            return self + (-other)
        return self._shift(-_rational(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, RatFn):
            return other * self
        if not isinstance(other, Poly):
            # a rational factor scales the coefficients
            c = _rational(other)
            if c == 1:
                return self
            return Poly._trusted(self.variables, {e: x * c for e, x in self.terms.items()})
        names, a, b = self._aligned(other)
        out: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, ZERO) + c1 * c2
        return Poly._trusted(names, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = ONE
        for _ in range(n):
            result = result * self
        return result

    def __truediv__(self, other):
        if isinstance(other, RatFn):
            return NotImplemented  # RatFn.__rtruediv__ divides
        if isinstance(other, Poly):
            return ratfn(self, other)
        other = _as_fraction(other)
        if other == 0:
            raise ZeroDivisionError
        return Poly._trusted(self.variables, {e: c / other for e, c in self.terms.items()})

    def __rtruediv__(self, other):
        return ratfn(other, self)

    # -- graded-lex order ---------------------------------------------
    @staticmethod
    def _key(exp: tuple):
        return (sum(exp), exp)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term."""
        exp = max(self.terms, key=Poly._key)
        return exp, self.terms[exp]

    def exact_div(self, divisor: "Poly") -> Scalar:
        """Exact quotient self / divisor; raises InexactDivision otherwise."""
        names, rem, div = self._aligned(divisor)
        rem = dict(rem)
        dexp = max(div, key=Poly._key)
        dcoef = div[dexp]
        qterms: dict = {}
        while rem:
            rexp = max(rem, key=Poly._key)
            rcoef = rem[rexp]
            qexp = tuple(r - d for r, d in zip(rexp, dexp))
            if any(x < 0 for x in qexp):
                raise InexactDivision(f"({divisor}) does not divide ({self})")
            qc = rcoef / dcoef
            qterms[qexp] = qterms.get(qexp, ZERO) + qc
            for e, c in div.items():
                key = tuple(x + y for x, y in zip(qexp, e))
                val = rem.get(key, ZERO) - qc * c
                if val:
                    rem[key] = val
                else:
                    rem.pop(key, None)
        return Poly._trusted(names, qterms)

    # -- evaluation ---------------------------------------------------
    def eval(self, assignment: Mapping[str, Fraction]) -> Fraction:
        for name in self.variables:
            if name not in assignment:
                raise MissingVariable(name)
        total = ZERO
        for e, c in self.terms.items():
            term = c
            for name, power in zip(self.variables, e):
                if power:
                    term *= _as_fraction(assignment[name]) ** power
            total += term
        return total

    def subs(self, assignment: Mapping[str, Fraction]) -> Scalar:
        """Substitute some variables, keeping the rest symbolic."""
        keep = [n for n in self.variables if n not in assignment]
        out: dict = {}
        for e, c in self.terms.items():
            coef = c
            key = []
            for name, power in zip(self.variables, e):
                if name in assignment:
                    coef *= _as_fraction(assignment[name]) ** power
                else:
                    key.append(power)
            key = tuple(key)
            out[key] = out.get(key, ZERO) + coef
        return Poly(tuple(keep), out)

    # -- printing -----------------------------------------------------
    def __str__(self) -> str:
        pieces = []
        for exp in sorted(self.terms, key=Poly._key, reverse=True):
            coef = self.terms[exp]
            mono = "*".join(
                f"{n}^{p}" if p > 1 else n
                for n, p in zip(self.variables, exp)
                if p
            )
            if mono:
                body = mono if abs(coef) == 1 else f"{abs(coef)}*{mono}"
            else:
                body = str(abs(coef))
            sign = "-" if coef < 0 else "+"
            pieces.append((sign, body))
        head_sign, head = pieces[0]
        text = ("-" if head_sign == "-" else "") + head
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    __repr__ = __str__


class RatFn:
    """Quotient of a rational or a Poly by a Poly, normalized with a monic
    denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Union[Fraction, Poly], den: Poly):
        _, lead = den.leading()
        if lead != 1:
            num = num / lead
            den = den / lead
        self.num = num
        self.den = den

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatFn):
            return (self.num * other.den) == (other.num * self.den)
        if isinstance(other, (int, Fraction, Poly)):
            return self.num == other * self.den
        return NotImplemented

    # equality is cross-multiplication, which no hash can respect for
    # unreduced representatives; quotients are values, not dict keys
    __hash__ = None

    def __add__(self, other):
        num, den = _parts(other)
        return ratfn(self.num * den + num * self.den, self.den * den)

    __radd__ = __add__

    def __neg__(self):
        return RatFn(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        num, den = _parts(other)
        return ratfn(self.num * num, self.den * den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        num, den = _parts(other)
        return ratfn(self.num * den, self.den * num)

    def __rtruediv__(self, other):
        num, den = _parts(other)
        return ratfn(num * self.den, den * self.num)

    def eval(self, assignment: Mapping[str, Fraction]) -> Fraction:
        den = self.den.eval(assignment)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at assignment")
        return poly_eval(self.num, assignment) / den

    def __str__(self) -> str:
        return f"({self.num})/({self.den})"

    __repr__ = __str__


def _parts(x) -> tuple:
    """(num, den) of a scalar x: a RatFn's own, (x, ONE) otherwise."""
    return (x.num, x.den) if isinstance(x, RatFn) else (x, ONE)


def _gcd_univariate(a: Poly, b: Poly) -> Scalar:
    """Monic gcd for polynomials in a single shared variable; ONE for
    polynomials in more variables."""
    names = set(a.variables) | set(b.variables)
    if len(names) != 1:
        return ONE

    def as_coeffs(p: Poly) -> list:
        out = [ZERO] * (p.total_degree() + 1)
        for (k,), c in p.terms.items():
            out[k] = c
        return out

    fa, fb = as_coeffs(a), as_coeffs(b)

    def trim(f):
        while f and f[-1] == 0:
            f.pop()
        return f

    while fb:
        # remainder of fa by fb
        fa = fa[:]
        while len(fa) >= len(fb) and trim(fa):
            q = fa[-1] / fb[-1]
            shift = len(fa) - len(fb)
            for i, c in enumerate(fb):
                fa[i + shift] -= q * c
            trim(fa)
        fa, fb = fb, fa
    lead = fa[-1]
    return Poly(a.variables, {(i,): c / lead for i, c in enumerate(fa)})


def ratfn(num, den) -> Scalar:
    """num / den for rationals and Polys: a Fraction, a Poly, or a RatFn
    with a Poly denominator (in lowest terms when both are Polys in one
    shared variable)."""
    if not isinstance(num, Poly):
        num = _as_fraction(num)
    if not isinstance(den, Poly):
        return num / _as_fraction(den)
    if not isinstance(num, Poly):
        return RatFn(num, den) if num else ZERO
    try:
        return num.exact_div(den)
    except InexactDivision:
        pass
    g = _gcd_univariate(num, den)
    if isinstance(g, Poly):
        # den / g is not constant, or den would have divided num
        return RatFn(num.exact_div(g), den.exact_div(g))
    return RatFn(num, den)


# ---------------------------------------------------------------------------
# Scalar helpers


def as_scalar(value) -> Scalar:
    if isinstance(value, (Poly, RatFn, Fraction)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not a scalar: {value!r}")


def is_rational(s: Scalar) -> bool:
    return isinstance(s, Fraction)


def poly_eval(p: Scalar, assignment: Mapping[str, Fraction]) -> Fraction:
    """Exact evaluation; raises MissingVariable on incomplete assignments."""
    if isinstance(p, Fraction):
        return p
    return p.eval(assignment)


def scalar_subs(s: Scalar, assignment: Mapping[str, Fraction]) -> Scalar:
    """Partial substitution; a Fraction when fully instantiated."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, RatFn):
        return ratfn(scalar_subs(s.num, assignment), s.den.subs(assignment))
    return s.subs(assignment)


def total_degree(s: Scalar) -> int:
    """Total degree of a polynomial scalar; 0 for a rational."""
    if isinstance(s, RatFn):
        raise TypeError("total degree of a quotient")
    return s.total_degree() if isinstance(s, Poly) else 0


def scalar_variables(s: Scalar) -> set:
    if isinstance(s, Fraction):
        return set()
    if isinstance(s, RatFn):
        return scalar_variables(s.num) | set(s.den.variables)
    return set(s.variables)


# ---------------------------------------------------------------------------
# Vectors

Vector = tuple


def vec(entries: Iterable) -> Vector:
    return tuple(as_scalar(e) for e in entries)


def zero_vec(dim: int) -> Vector:
    return (ZERO,) * dim


def basis_vec(dim: int, k: int) -> Vector:
    return tuple(ONE if i == k else ZERO for i in range(dim))


def vec_sub(x: Vector, y: Vector) -> Vector:
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c: Scalar, x: Vector) -> Vector:
    return tuple(c * a for a in x)


def vec_str(v, prefix: str = "e") -> str:
    """Nonzero components as ``c e1 + e2 + ...``; ``prefix`` names the
    basis (``e^`` for a one-form)."""
    parts = []
    for i, c in enumerate(v):
        if not c:
            continue
        cs = str(c)
        parts.append(f"{prefix}{i + 1}" if cs == "1" else f"{cs} {prefix}{i + 1}")
    return " + ".join(parts) if parts else "0"


def bindings_str(assignment: Mapping) -> str:
    """``name=value`` pairs in name order, as ``--params`` spells them."""
    return ", ".join(f"{name}={value}" for name, value in sorted(assignment.items()))


# ---------------------------------------------------------------------------
# Rational linear algebra (the fraction-free elimination below on int rows)


def rref(m) -> tuple:
    """Reduced row echelon form; returns (rows, pivot_columns): the rows of
    ``_echelon`` over its last pivot."""
    rows, _, step = _ring_rows(m, rational=True)
    rows, pivots, last = _echelon(rows, step)
    return [list(quotients(row, last)) for row in rows], pivots


def rank(m) -> int:
    rows, _, step = _ring_rows(m, rational=True)
    return len(_echelon(rows, step)[1])


def nullspace(m) -> list:
    """Echelon-normalized basis of the kernel, deterministic ordering.

    Basis vectors are indexed by free columns (ascending); each has a 1 in
    its free slot and, in each pivot slot, minus the reduced row's entry in
    the free column: the numerator over the last pivot of ``_echelon``.  A
    matrix without rows has no known width, so it is a ValueError, not an
    empty kernel.
    """
    if not m:
        raise ValueError("nullspace of a matrix without rows: its width is unknown")
    rows, _, step = _ring_rows(m, rational=True)
    rows, pivots, last = _echelon(rows, step)
    ncols = len(m[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p in zip(rows, pivots):
            if x := row[f]:
                v[p] = Fraction(-x, last)
        basis.append(tuple(v))
    return basis


def mat_mul(a, b) -> list:
    """a b, skipping zero entries.  Sums start from int 0, so the product of
    Scalar matrices has the same values and the product of ring numerator
    matrices (int or Poly) stays in the ring."""
    width = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * width
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def mat_comb(coeffs, mats) -> list:
    """sum_q coeffs[q] mats[q], skipping zero entries, with sums from int 0
    as in ``mat_mul``."""
    out = [[0] * len(row) for row in mats[0]] if mats else []
    for c, m in zip(coeffs, mats):
        if c:
            for acc, row in zip(out, m):
                for j, x in enumerate(row):
                    if x:
                        acc[j] += c * x
    return out


def column(m, k) -> list:
    return [row[k] for row in m]


def nonzero_columns(m, den, cols) -> list:
    """(k, column k of m over den as Scalars) for each k in cols whose
    column is nonzero: how a defect matrix on numerators is reported."""
    return [(k, quotients(v, den)) for k in cols if any(v := column(m, k))]


def mat_numerators(m) -> tuple:
    """(rows, den): the entries of the matrix m as ring numerators over one
    denominator (``common_denominator``), in m's shape."""
    nums, den = common_denominator([x for row in m for x in row])
    it = iter(nums)
    return [[next(it) for _ in row] for row in m], den


def mat_vec(a, x) -> Vector:
    """a x as Scalars; DimensionMismatch unless x has one entry per column."""
    if any(len(row) != len(x) for row in a):
        raise DimensionMismatch("vector length != matrix width")
    return tuple(sum((a[i][k] * x[k] for k in range(len(x))), start=ZERO) for i in range(len(a)))


# ---------------------------------------------------------------------------
# Fraction-free (Bareiss) elimination over int and polynomial entries


def det_poly(m) -> Scalar:
    """Exact determinant by fraction-free Bareiss elimination.

    The rows are cleared to ring elements by ``_ring_rows`` (a RatFn
    entry is a TypeError there).  The forward elimination runs on them
    through its row step, and the determinant is the last pivot, with the
    sign of the row swaps, over the product of the row denominators: a
    Fraction or a Poly (ZERO for a zero row or column, or a column without
    a pivot).
    """
    # forward-only, unlike _echelon: ZERO at the first column without a pivot
    n = len(m)
    if n == 0:
        return ONE
    if any(len(row) != n for row in m):
        raise ValueError("det of a non-square matrix")
    rows, dens, step = _ring_rows(m)
    # cheap exits: an all-zero row or column
    if not all(map(any, rows)) or not all(map(any, zip(*rows))):
        return ZERO
    sign, prev = 1, 1
    for k in range(n - 1):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            return ZERO
        if p != k:
            rows[k], rows[p] = rows[p], rows[k]
            sign = -sign
        top = rows[k]
        piv = top[k]
        for i in range(k + 1, n):
            f = rows[i][k]
            if f or piv != prev:
                rows[i] = step(rows[i], top, piv, f, prev)
        prev = piv
    last = -rows[-1][-1] if sign < 0 else rows[-1][-1]
    return _quotient(last, prod(dens))


def _ring_rows(m, rational: bool = False) -> tuple:
    """(rows, dens, step): each row of m as ring numerators over its
    denominator by ``common_denominator``, and the row step for them.

    A row's denominator is an int exactly when its numerators are ints, so
    the step is ``_int_step`` when every denominator is an int and
    ``_ring_step`` otherwise.  A RatFn entry, whose row denominator is a
    Poly, is a TypeError: nondegeneracy tests happen before division ever
    occurs.  With rational, a row that is not rational is
    ParametricUnsupported, and each row is divided by the gcd of its
    numerators, which keeps the integers small and the row space as it is.
    """
    rows, dens = [], []
    for row in m:
        nums, den = common_denominator(row)
        if type(den) is not int:
            if rational:
                raise ParametricUnsupported(
                    "matrix has symbolic entries; substitute parameters first"
                )
            if isinstance(den, Poly):
                raise TypeError("RatFn entry in a fraction-free elimination")
        elif rational and (g := gcd(*nums)) > 1:
            nums = [x // g for x in nums]
        rows.append(nums)
        dens.append(den)
    return rows, dens, _int_step if all(type(d) is int for d in dens) else _ring_step


def _int_step(row, top, piv, f, prev) -> list:
    """(piv * row - f * top) / prev on int rows, as one floor quotient per
    entry and one check of the row sums: every floor quotient q of v / prev
    has prev * q on the same side of v, so prev * sum(q) equals the sum of
    the v iff every quotient is exact; raises InexactDivision otherwise."""
    if prev == 1:
        return [piv * x - f * y for x, y in zip(row, top)]
    new = [(piv * x - f * y) // prev for x, y in zip(row, top)]
    if prev * sum(new) != piv * sum(row) - f * sum(top):
        raise InexactDivision(f"{prev} does not divide {piv} * row - {f} * top")
    return new


def _ring_step(row, top, piv, f, prev) -> list:
    """(piv * row - f * top) / prev on rows with Fraction or Poly entries,
    entry by entry: zero products and quotients skipped, each quotient exact
    by ``_exact_quot``."""
    new = []
    for x, y in zip(row, top):
        v = (piv * x if x else 0) - (f * y if f and y else 0)
        new.append(_exact_quot(v, prev) if v else 0)
    return new


def _exact_quot(num, den):
    """Exact quotient num / den of nonzero ring elements (ints, Fractions or
    Polys), as in Bareiss elimination; raises InexactDivision when den does
    not divide num."""
    if isinstance(num, Poly):
        return num.exact_div(den) if isinstance(den, Poly) else num / den
    if isinstance(den, Poly):
        # a constant is never a multiple of a non-constant polynomial
        raise InexactDivision(f"{den} does not divide {num}")
    if isinstance(num, int) and isinstance(den, int):
        q, r = divmod(num, den)
        if r:
            raise InexactDivision(f"{den} does not divide {num}")
        return q
    return num / den


def _echelon(rows, step) -> tuple:
    """Fraction-free Gauss-Jordan elimination (Bareiss, 1968) of ring rows
    (ints, Fractions or Polys) of any shape, with the row step that
    ``_ring_rows`` gave them: (rows, pivots, last) with the nonzero echelon
    numerator rows, their pivot columns and the last pivot.

    A column without a pivot is skipped, and the elimination stops once
    every row has one.  Every quotient by the previous pivot is exact
    (InexactDivision otherwise).  Every pivot entry ends equal to last, so
    the reduced row echelon form is rows / last.
    """
    ncols = len(rows[0]) if rows else 0
    pivots: list = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        top = rows[r]
        piv = top[c]
        for i in range(len(rows)):
            f = rows[i][c]
            if i == r or (not f and piv == prev):
                continue
            rows[i] = step(rows[i], top, piv, f, prev)
        prev = piv
        pivots.append(c)
    return rows[: len(pivots)], pivots, prev


def solve_fraction_free(a, bs) -> tuple:
    """``_echelon`` of [a | b_1 ... b_k]: (nums, den) with the solution of
    a x = b_k equal to nums[k][i] / den.

    Each row is first scaled to ring elements (``_ring_rows``).  den is the
    last pivot, det(a) up to a nonzero rational factor.  Raises
    SingularSystem when a is singular, TypeError on RatFn entries and
    InexactDivision on an inexact quotient.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("solve of a non-square system")
    rows, _, step = _ring_rows(list(a[i]) + [b[i] for b in bs] for i in range(n))
    rows, pivots, den = _echelon(rows, step)
    if pivots[:n] != list(range(n)):
        raise SingularSystem("singular linear system")
    return [[row[n + k] for row in rows] for k in range(len(bs))], den


def _quotient(num, den) -> Scalar:
    if isinstance(num, int) and isinstance(den, int):
        return Fraction(num, den)
    return ratfn(num, den)


def quotients(nums, den) -> Vector:
    """The Scalars nums[i] / den of ring numerators over one denominator."""
    return tuple(_quotient(x, den) for x in nums)


def common_denominator(values) -> tuple:
    """(nums, den) with values[i] = nums[i] / den: int values as they are
    over 1, rational values as ints over the lcm of their denominators,
    Polys over the product of the distinct RatFn denominators otherwise;
    when no value is a RatFn, each value is its own numerator over ONE."""
    if all(type(v) is int for v in values):
        return list(values), 1
    values = [as_scalar(v) for v in values]
    if all(isinstance(v, Fraction) for v in values):
        den = lcm(*(v.denominator for v in values))
        return [v.numerator * (den // v.denominator) for v in values], den
    dens: list = []
    for v in values:
        if isinstance(v, RatFn) and v.den not in dens:
            dens.append(v.den)
    if not dens:
        return values, ONE
    den = prod(dens)
    return [
        v.num * den.exact_div(v.den) if isinstance(v, RatFn) else den * v for v in values
    ], den


def solve_linear(a, bs) -> list:
    """Solutions of a x = b, one per right-hand side b in bs, from one
    fraction-free elimination: Fractions on rational systems, ``ratfn``
    quotients otherwise."""
    nums, den = solve_fraction_free(a, bs)
    return [list(quotients(x, den)) for x in nums]
