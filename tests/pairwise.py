"""Reference values for the tests, one basis pair or one vector at a time.

The package computes brackets, form values, map images and products as
matrix equations on numerators.  The oracles of the tests (the ``seed_*``
loops among them) take these values from here instead: each is read off the
coefficients that an algebra, a form, a map or a table stores, with ring
operations alone (and ``scalars.rank`` for a dimension): nothing here calls
the package's brackets, ad matrices or numerator forms, so an oracle shares
no code with what it checks.
"""

from __future__ import annotations

from coslie import scalars as sc

ZERO = sc.ZERO


def vec_add(x, y) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def _dot(x, y):
    return sum((a * b for a, b in zip(x, y)), start=ZERO)


def bracket_basis(L, i: int, j: int) -> tuple:
    """[e_i, e_j] for 0-based i, j in any order, from ``L.brackets``."""
    zero = (ZERO,) * L.dim
    if i <= j:
        return zero if i == j else L.brackets.get((i, j), zero)
    return tuple(-x for x in L.brackets.get((j, i), zero))


def bracket(L, x, y) -> tuple:
    """[x, y] = sum over the stored pairs i < j of (x_i y_j - x_j y_i) [e_i, e_j]."""
    out = (ZERO,) * L.dim
    for (i, j), v in L.brackets.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            out = vec_add(out, tuple(c * a for a in v))
    return out


def derived_dim(L) -> int:
    """dim [g, g]: the rank of the stored brackets."""
    return sc.rank([list(v) for v in L.brackets.values()] or [[0] * L.dim])


def image(M, x) -> tuple:
    """M x for a ``LinearMap`` M, row by row of its stored matrix."""
    return tuple(_dot(row, x) for row in M.matrix)


def evaluate(alpha, x):
    """alpha(x) for a ``OneForm`` alpha."""
    return _dot(alpha.coeffs, x)


def value_basis(omega, i: int, j: int):
    """omega(e_i, e_j) for a ``TwoForm`` omega, 0-based, any index order."""
    if i <= j:
        return ZERO if i == j else omega.coeffs.get((i, j), ZERO)
    return -omega.coeffs.get((j, i), ZERO)


def value(omega, x, y):
    """omega(x, y) = sum over the stored pairs i < j of c (x_i y_j - x_j y_i)."""
    total = ZERO
    for (i, j), c in omega.coeffs.items():
        total += c * (x[i] * y[j] - x[j] * y[i])
    return total


def product(T, x, y) -> tuple:
    """x . y = sum x_i y_j (e_i . e_j) from the table's ``products``."""
    out = (ZERO,) * T.dim
    for i, row in enumerate(T.products):
        for j, v in enumerate(row):
            c = x[i] * y[j]
            if c:
                out = vec_add(out, tuple(c * a for a in v))
    return out


def find(report, entry: str, check: str):
    """The result of the named check of the named catalog entry."""
    for r in report.results:
        if r.entry == entry and r.check == check:
            return r
    raise KeyError((entry, check))
