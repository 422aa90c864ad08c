"""Alternating forms, the scalar Chevalley-Eilenberg differential in low
degree, cocycle predicates, and the top-form coefficient of alpha ^ omega^n.

Sign convention: d(alpha)(x, y) = -alpha([x, y]), and in degree two
d(omega)(x, y, z) = -(omega([x,y],z) + omega([y,z],x) + omega([z,x],y)).
Kernels are convention-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd
from typing import Mapping

from . import scalars as sc
from .errors import DimensionMismatch, EvenDimension, ParametricUnsupported
from .lie_core import LieAlgebra, LinearMap
from .scalars import Scalar, Vector


@dataclass(frozen=True)
class OneForm:
    dim: int
    coeffs: tuple

    def __post_init__(self):
        c = sc.vec(self.coeffs)
        if len(c) != self.dim:
            raise DimensionMismatch("one-form coefficient count != dim")
        object.__setattr__(self, "coeffs", c)

    @staticmethod
    def zero(dim: int) -> "OneForm":
        return OneForm(dim, sc.zero_vec(dim))

    @staticmethod
    def dual(dim: int, k: int, coeff=1) -> "OneForm":
        """coeff * e^k (1-based k)."""
        return OneForm(
            dim, tuple(sc.as_scalar(coeff) if i == k - 1 else sc.ZERO for i in range(dim))
        )

    @staticmethod
    def from_dict(dim: int, comps: Mapping[int, Scalar]) -> "OneForm":
        v = [sc.ZERO] * dim
        for k, c in comps.items():
            v[k - 1] += sc.as_scalar(c)
        return OneForm(dim, tuple(v))

    def apply(self, x: Vector) -> Scalar:
        if len(x) != self.dim:
            raise DimensionMismatch("vector length != form dim")
        return sum((a * b for a, b in zip(self.coeffs, x)), start=sc.ZERO)

    def is_zero(self) -> bool:
        return sc.vec_is_zero(self.coeffs)

    def subs(self, assignment) -> "OneForm":
        return OneForm(self.dim, tuple(sc.scalar_subs(c, assignment) for c in self.coeffs))

    def is_parametric(self) -> bool:
        return any(not sc.is_rational(c) for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, OneForm):
            return NotImplemented
        return self.dim == other.dim and sc.vecs_equal(self.coeffs, other.coeffs)


def _norm_coeffs(coeffs: Mapping, valid, what: str) -> dict:
    """The nonzero coefficients as Scalars, sorted by index; an index tuple
    with valid(*index) false is a DimensionMismatch naming it as what."""
    out = {}
    for idx, c in coeffs.items():
        if not valid(*idx):
            raise DimensionMismatch(f"bad {what} {idx}")
        c = sc.as_scalar(c)
        if not sc.is_zero(c):
            out[idx] = c
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class TwoForm:
    dim: int
    coeffs: dict = field(default_factory=dict)  # (i, j) 0-based, i<j -> Scalar

    def __post_init__(self):
        valid = lambda i, j: 0 <= i < j < self.dim
        coeffs = _norm_coeffs(self.coeffs, valid, "two-form index pair")
        object.__setattr__(self, "coeffs", coeffs)

    @staticmethod
    def zero(dim: int) -> "TwoForm":
        return TwoForm(dim, {})

    @staticmethod
    def from_dict(dim: int, comps: Mapping) -> "TwoForm":
        """1-based constructor: {(i, j): coeff}, i < j."""
        return TwoForm(dim, {(i - 1, j - 1): c for (i, j), c in comps.items()})

    def value_basis(self, i: int, j: int) -> Scalar:
        """omega(e_i, e_j), 0-based, any index order."""
        if i == j:
            return sc.ZERO
        if i < j:
            return self.coeffs.get((i, j), sc.ZERO)
        return -self.coeffs.get((j, i), sc.ZERO)

    def value(self, x: Vector, y: Vector) -> Scalar:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("vector length != form dim")
        total = sc.ZERO
        for (i, j), c in self.coeffs.items():
            term = x[i] * y[j] - x[j] * y[i]
            total += c * term
        return total

    def contract(self, x: Vector) -> OneForm:
        """Inner product i_x omega as a one-form."""
        return OneForm(
            self.dim,
            tuple(
                self.value(x, sc.basis_vec(self.dim, l)) for l in range(self.dim)
            ),
        )

    def matrix(self) -> list:
        return [
            [self.value_basis(i, j) for j in range(self.dim)] for i in range(self.dim)
        ]

    def is_zero(self) -> bool:
        return not self.coeffs

    def subs(self, assignment) -> "TwoForm":
        return TwoForm(
            self.dim, {ij: sc.scalar_subs(c, assignment) for ij, c in self.coeffs.items()}
        )

    def is_parametric(self) -> bool:
        return any(not sc.is_rational(c) for c in self.coeffs.values())

    def __eq__(self, other):
        if not isinstance(other, TwoForm):
            return NotImplemented
        if self.dim != other.dim:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(
            sc.scalars_equal(self.value_basis(i, j), other.value_basis(i, j))
            for i, j in keys
        )


def form_twist(theta: TwoForm, phi: LinearMap) -> TwoForm:
    """theta_phi(x, y) = theta(phi x, y) + theta(x, phi y); phi is an
    infinitesimal symplectic transformation of theta iff it is zero.  Its
    matrix is phi^T W + W phi = X - X^T with X = W phi, W theta's skew
    matrix, on numerators."""
    n = theta.dim
    W, w = sc.mat_numerators(theta.matrix())
    P, p = sc.mat_numerators(phi.matrix)
    X = sc.mat_mul(W, P)
    coeffs = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = X[i][j] - X[j][i]
            if c:
                coeffs[(i, j)] = c
    return TwoForm(n, dict(zip(coeffs, sc.quotients(list(coeffs.values()), w * p))))


@dataclass(frozen=True)
class ThreeForm:
    dim: int
    coeffs: dict = field(default_factory=dict)  # (i, j, k) 0-based, i<j<k

    def __post_init__(self):
        valid = lambda i, j, k: 0 <= i < j < k < self.dim
        coeffs = _norm_coeffs(self.coeffs, valid, "three-form index triple")
        object.__setattr__(self, "coeffs", coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs


# ---------------------------------------------------------------------------
# Differentials


def d1(L: LieAlgebra, alpha: OneForm) -> TwoForm:
    if alpha.dim != L.dim:
        raise DimensionMismatch("form/algebra dimension mismatch")
    ad, r = L.ad_numerators
    a, s = sc.common_denominator(alpha.coeffs)
    pairs = list(L.brackets)
    nums = [-sum((x * ad[i][k][j] for k, x in enumerate(a) if x), start=0) for i, j in pairs]
    return TwoForm(L.dim, dict(zip(pairs, sc.quotients(nums, s * r))))


def _triple_rows(L: LieAlgebra) -> list:
    """The degree-2 differential as sparse rows of ring numerators, one per
    triple i < j < k whose row is nonzero: ``((i, j, k), {(p, q): c})`` with
    ``omega([e_i,e_j],e_k) + omega([e_j,e_k],e_i) + omega([e_k,e_i],e_j)
    = sum c * omega_pq / r`` for r of ``L.ad_numerators``.

    omega(x, e_m) picks up +x_l on e^{lm} for l < m and -x_l on e^{ml} for
    l > m, so each nonzero bracket component enters exactly one monomial.
    """
    ad = L.ad_numerators[0]
    rows = []
    for i, j, k in combinations(range(L.dim), 3):
        row: dict = {}
        for (a, b), m, sign in (((i, j), k, 1), ((j, k), i, 1), ((i, k), j, -1)):
            if (a, b) not in L.brackets:
                continue
            for l, xrow in enumerate(ad[a]):
                xl = xrow[b]
                if l == m or not xl:
                    continue
                pair = (l, m) if l < m else (m, l)
                term = xl if (sign > 0) == (l < m) else -xl
                row[pair] = row.get(pair, 0) + term
        row = {pair: c for pair, c in row.items() if c}
        if row:
            rows.append(((i, j, k), row))
    return rows


def d2(L: LieAlgebra, omega: TwoForm) -> ThreeForm:
    """d(omega) from the triple rows and omega's numerators, so only the
    nonzero bracket components enter."""
    if omega.dim != L.dim:
        raise DimensionMismatch("form/algebra dimension mismatch")
    r = L.ad_numerators[1]
    nums, w = sc.common_denominator(list(omega.coeffs.values()))
    wn = dict(zip(omega.coeffs, nums))
    coeffs = {}
    for triple, row in _triple_rows(L):
        c = sum((x * wn[pair] for pair, x in row.items() if pair in wn), start=0)
        if c:
            coeffs[triple] = -c
    return ThreeForm(L.dim, dict(zip(coeffs, sc.quotients(list(coeffs.values()), w * r))))


def is_1cocycle(L: LieAlgebra, alpha: OneForm) -> bool:
    return d1(L, alpha).is_zero()


def is_2cocycle(L: LieAlgebra, omega: TwoForm) -> bool:
    return d2(L, omega).is_zero()


# ---------------------------------------------------------------------------
# Volume coefficient


def volume_coeff(L: LieAlgebra, alpha: OneForm, omega: TwoForm) -> Scalar:
    """Coefficient of e^{1...2n+1} in alpha ^ omega^n, as a Pfaffian expansion.

    With Omega the skew matrix of omega and 0-based m,
    alpha ^ omega^n = n! * sum_m (-1)^m alpha_m Pf(Omega without row and
    column m) e^{1...2n+1}.  Each Pfaffian expands along its smallest index
    over omega's nonzero coefficients and is memoized over index bitmasks,
    so the cost grows at most as 2^dim.  Only +, - and * are used, so the
    result is exact over Fraction, Poly and RatFn alike.
    """
    if L.dim % 2 == 0:
        raise EvenDimension("volume coefficient needs odd dimension")
    if alpha.dim != L.dim or omega.dim != L.dim:
        raise DimensionMismatch("form/algebra dimension mismatch")
    n = (L.dim - 1) // 2
    w = omega.coeffs
    # Pf of the empty index set and of each 2 x 2 block of omega
    memo = {0: sc.ONE, **{(1 << i) | (1 << j): c for (i, j), c in w.items()}}

    def pfaffian(mask: int) -> Scalar:
        if mask in memo:
            return memo[mask]
        i = (mask & -mask).bit_length() - 1
        rest = mask ^ (1 << i)
        total = sc.ZERO
        plus = True  # (-1)^(position of j in mask + 1)
        for j in range(i + 1, L.dim):
            if not rest >> j & 1:
                continue
            c = w.get((i, j))
            if c is not None:
                sub = pfaffian(rest ^ (1 << j))
                if not sc.is_zero(sub):
                    total = total + c * sub if plus else total - c * sub
            plus = not plus
        memo[mask] = total
        return total

    full = (1 << L.dim) - 1
    total = sc.ZERO
    for m, a in enumerate(alpha.coeffs):
        if sc.is_zero(a):
            continue
        pf = pfaffian(full ^ (1 << m))
        if not sc.is_zero(pf):
            total = total - a * pf if m % 2 else total + a * pf
    return total * Fraction(factorial(n))


# ---------------------------------------------------------------------------
# Cocycle spaces


def _pair_index(dim: int):
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    return pairs, {p: n for n, p in enumerate(pairs)}


def _primitive(row: list) -> list:
    g = gcd(*row)
    return [x // g for x in row]


def cocycle_spaces(L: LieAlgebra):
    """(basis of Z^1 as OneForms, basis of Z^2 as TwoForms), echelon order."""
    if L.is_parametric():
        raise ParametricUnsupported("cocycle spaces need rational structure constants")
    dim = L.dim
    pairs, index = _pair_index(dim)

    # Every row is of int numerators divided by their gcd, which keeps the
    # integers of the elimination small and does not change the rref.
    # Z^1: one row per nonzero bracket, columns by dual basis index l.
    ad = L.ad_numerators[0]
    rows1 = [_primitive([row[j] for row in ad[i]]) for i, j in L.brackets]
    if rows1:
        z1 = [OneForm(dim, v) for v in sc.nullspace(rows1)]
    else:
        z1 = [OneForm.dual(dim, l + 1) for l in range(dim)]

    # Z^2: the nonzero triple rows, columns by pair monomials e^{pq}; the
    # all-zero rows left out do not change the rref.
    rows2 = []
    for _, row in _triple_rows(L):
        dense = [0] * len(pairs)
        for pair, c in row.items():
            dense[index[pair]] = c
        rows2.append(_primitive(dense))
    if rows2:
        z2 = [
            TwoForm(dim, {pairs[c]: v[c] for c in range(len(pairs))})
            for v in sc.nullspace(rows2)
        ]
    else:
        z2 = [TwoForm(dim, {p: sc.ONE}) for p in pairs]
    return z1, z2
