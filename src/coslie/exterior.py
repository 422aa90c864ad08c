"""Alternating forms, the scalar Chevalley-Eilenberg differential in every
degree, cocycle predicates, and the top-form coefficient of alpha ^ omega^n.

Sign convention: for a k-form theta,
d(theta)(x_0, ..., x_k) = sum_{a<b} (-1)^(a+b) theta([x_a, x_b], x_0, ...,
^x_a, ..., ^x_b, ..., x_k), with ^ marking an omitted argument.  So
d(alpha)(x, y) = -alpha([x, y]) and
d(omega)(x, y, z) = -(omega([x,y],z) + omega([y,z],x) + omega([z,x],y)).
Kernels are convention-independent.  The matrix of d is
``lie_core.differential`` (re-exported here), built once per algebra and
degree; d1, d2 and the cocycle spaces read its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Mapping

from . import scalars as sc
from .errors import DimensionMismatch, EvenDimension, ParametricUnsupported
from .lie_core import LieAlgebra, LinearMap, differential, zero_based, zero_based_pair
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
        k = zero_based(dim, k, "one-form index")
        return OneForm(dim, tuple(sc.as_scalar(coeff) if i == k else sc.ZERO for i in range(dim)))

    @staticmethod
    def from_dict(dim: int, comps: Mapping[int, Scalar]) -> "OneForm":
        v = [sc.ZERO] * dim
        for k, c in comps.items():
            v[zero_based(dim, k, "one-form index")] += sc.as_scalar(c)
        return OneForm(dim, tuple(v))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def subs(self, assignment) -> "OneForm":
        return OneForm(self.dim, tuple(sc.scalar_subs(c, assignment) for c in self.coeffs))

    def is_parametric(self) -> bool:
        return any(not sc.is_rational(c) for c in self.coeffs)


def _norm_coeffs(coeffs: Mapping, valid, what: str) -> dict:
    """The nonzero coefficients as Scalars, sorted by index; an index tuple
    with valid(*index) false is a DimensionMismatch naming it as what."""
    out = {}
    for idx, c in coeffs.items():
        if not valid(*idx):
            raise DimensionMismatch(f"bad {what} {idx}")
        c = sc.as_scalar(c)
        if c:
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
        pairs = {zero_based_pair(dim, i, j, "two-form index"): c for (i, j), c in comps.items()}
        return TwoForm(dim, pairs)

    def contract(self, x: Vector) -> OneForm:
        """Inner product i_x omega as a one-form: the row x^T W of omega's
        skew matrix W."""
        return OneForm(self.dim, sc.mat_vec(list(zip(*self.matrix())), x))

    def matrix(self) -> list:
        """The skew matrix W: W[i][j] = c and W[j][i] = -c for each coefficient c at (i, j)."""
        W = [[sc.ZERO] * self.dim for _ in range(self.dim)]
        for (i, j), c in self.coeffs.items():
            W[i][j], W[j][i] = c, -c
        return W

    def is_zero(self) -> bool:
        return not self.coeffs

    def subs(self, assignment) -> "TwoForm":
        return TwoForm(
            self.dim, {ij: sc.scalar_subs(c, assignment) for ij, c in self.coeffs.items()}
        )

    def is_parametric(self) -> bool:
        return any(not sc.is_rational(c) for c in self.coeffs.values())


def form_twist(theta: TwoForm, phi: LinearMap) -> TwoForm:
    """theta_phi(x, y) = theta(phi x, y) + theta(x, phi y); phi is an
    infinitesimal symplectic transformation of theta iff it is zero.  Its
    matrix is phi^T W + W phi = X - X^T with X = W phi, W theta's skew
    matrix, on numerators; DimensionMismatch unless phi is an endomorphism
    of theta's space."""
    n = theta.dim
    if phi.source_dim != n or phi.target_dim != n:
        raise DimensionMismatch("map is not an endomorphism of the form's space")
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


def _apply(L: LieAlgebra, k: int, coeffs: Mapping) -> dict:
    """d of the k-form with coefficients {increasing k-tuple: Scalar}, as
    {increasing (k+1)-tuple: Scalar}, from ``differential`` and the form's
    nonzero numerators, so only the nonzero bracket components enter."""
    nums, w = sc.common_denominator(list(coeffs.values()))
    wn = {S: n for S, n in zip(coeffs, nums) if n}
    out = {}
    for T, row in differential(L, k):
        c = sum((x * wn[S] for S, x in row.items() if S in wn), start=0)
        if c:
            out[T] = c
    return dict(zip(out, sc.quotients(list(out.values()), w * L.ad_numerators[1])))


def d1(L: LieAlgebra, alpha: OneForm) -> TwoForm:
    if alpha.dim != L.dim:
        raise DimensionMismatch("form/algebra dimension mismatch")
    return TwoForm(L.dim, _apply(L, 1, {(l,): c for l, c in enumerate(alpha.coeffs)}))


def d2(L: LieAlgebra, omega: TwoForm) -> ThreeForm:
    if omega.dim != L.dim:
        raise DimensionMismatch("form/algebra dimension mismatch")
    return ThreeForm(L.dim, _apply(L, 2, omega.coeffs))


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
                if sub:
                    total = total + c * sub if plus else total - c * sub
            plus = not plus
        memo[mask] = total
        return total

    full = (1 << L.dim) - 1
    total = sc.ZERO
    for m, a in enumerate(alpha.coeffs):
        if not a:
            continue
        pf = pfaffian(full ^ (1 << m))
        if pf:
            total = total - a * pf if m % 2 else total + a * pf
    return total * Fraction(factorial(n))


# ---------------------------------------------------------------------------
# Cocycle spaces


def closed_numerators(L: LieAlgebra, k: int) -> tuple:
    """(cols, basis, den): the increasing k-tuples in lexicographic order,
    and an echelon basis of the closed k-forms as int coefficient rows over
    them, over the one denominator den: ``kernel_numerators`` of the int
    numerator rows of ``differential``; one zero row stands for d = 0,
    whose kernel is every k-form.  ParametricUnsupported on symbolic
    structure constants."""
    if L.is_parametric():
        raise ParametricUnsupported("cocycle spaces need rational structure constants")
    cols = list(combinations(range(L.dim), k))
    index = {S: n for n, S in enumerate(cols)}
    rows = []
    for _, row in differential(L, k):
        dense = [0] * len(cols)
        for S, c in row.items():
            dense[index[S]] = c
        rows.append(dense)
    basis, den = sc.kernel_numerators(rows or [[0] * len(cols)])
    return cols, basis, den


def cocycle_spaces(L: LieAlgebra):
    """(basis of Z^1 as OneForms, basis of Z^2 as TwoForms), echelon order:
    the quotients of ``closed_numerators``."""
    _, z1, d = closed_numerators(L, 1)
    pairs, z2, e = closed_numerators(L, 2)
    return (
        [OneForm(L.dim, sc.quotients(v, d)) for v in z1],
        [TwoForm(L.dim, dict(zip(pairs, sc.quotients(v, e)))) for v in z2],
    )
