"""Lie algebras by structure constants.

Brackets are stored sparsely for i < j only (0-based internally), so
antisymmetry holds by construction and cannot be violated by bad input.
Human-facing constructors and defect reports use 1-based indices to match
the usual e1..en naming.

The Lie layer computes on one numerator form of the structure constants,
``LieAlgebra.ad_numerators``: the matrices ad_{e_i} as numerators over one
denominator (``scalars.common_denominator``: ints for rational data).
Identities are matrix equations on it (``scalars.mat_mul``,
``scalars.mat_comb``); a value becomes a Scalar only when it is returned,
and a defect matrix is reported by its nonzero columns
(``scalars.nonzero_columns``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence

from . import scalars as sc
from .errors import DimensionMismatch
from .scalars import Vector


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    brackets: dict = field(default_factory=dict)  # (i, j) 0-based, i<j -> Vector

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dimension must be positive")
        clean = {}
        for (i, j), v in self.brackets.items():
            if not (0 <= i < j < self.dim):
                raise DimensionMismatch(f"bad bracket index pair {(i, j)}")
            if len(v) != self.dim:
                raise DimensionMismatch("bracket value has wrong length")
            v = sc.vec(v)
            if any(v):
                clean[(i, j)] = v
        object.__setattr__(self, "brackets", clean)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_table(dim: int, table: Mapping) -> "LieAlgebra":
        """1-based constructor: {(i, j): {k: coeff}} with i < j."""
        brackets = {}
        for (i, j), comps in table.items():
            v = [sc.ZERO] * dim
            for k, coeff in comps.items():
                v[k - 1] += sc.as_scalar(coeff)
            brackets[(i - 1, j - 1)] = tuple(v)
        return LieAlgebra(dim, brackets)

    @staticmethod
    def abelian(dim: int) -> "LieAlgebra":
        return LieAlgebra(dim, {})

    # -- basic structure ----------------------------------------------
    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] for 0-based i, j in any order."""
        if i == j:
            return sc.zero_vec(self.dim)
        if i < j:
            return self.brackets.get((i, j), sc.zero_vec(self.dim))
        v = self.brackets.get((j, i))
        return sc.zero_vec(self.dim) if v is None else tuple(-x for x in v)

    @cached_property
    def ad_numerators(self) -> tuple:
        """(ad, r): ad[i][k][j] / r is the e_k component of [e_i, e_j], so
        ad[i] is the matrix of ad_{e_i} as ring numerators over r; filled
        from the stored brackets alone."""
        n = self.dim
        pairs = list(self.brackets.items())
        nums, r = sc.common_denominator([x for _, v in pairs for x in v])
        ad = [[[0] * n for _ in range(n)] for _ in range(n)]
        for p, ((i, j), _) in enumerate(pairs):
            for k, x in enumerate(nums[p * n:(p + 1) * n]):
                if x:
                    ad[i][k][j] = x
                    ad[j][k][i] = -x
        return tuple(tuple(map(tuple, M)) for M in ad), r

    def is_parametric(self) -> bool:
        return any(not sc.is_rational(x) for v in self.brackets.values() for x in v)

    def subs(self, assignment: Mapping[str, Fraction]) -> "LieAlgebra":
        return LieAlgebra(
            self.dim,
            {
                ij: tuple(sc.scalar_subs(x, assignment) for x in v)
                for ij, v in self.brackets.items()
            },
        )


@dataclass(frozen=True)
class LinearMap:
    source_dim: int
    target_dim: int
    matrix: tuple  # rows; column i is the image of e_i

    def __post_init__(self):
        m = tuple(tuple(sc.as_scalar(x) for x in row) for row in self.matrix)
        if len(m) != self.target_dim or any(len(r) != self.source_dim for r in m):
            raise DimensionMismatch("matrix shape does not match declared dims")
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def from_columns(columns: Sequence[Vector]) -> "LinearMap":
        target = len(columns[0])
        rows = tuple(
            tuple(sc.as_scalar(col[r]) for col in columns) for r in range(target)
        )
        return LinearMap(len(columns), target, rows)

    @staticmethod
    def zero(n: int) -> "LinearMap":
        return LinearMap(n, n, tuple((sc.ZERO,) * n for _ in range(n)))

    @staticmethod
    def identity(n: int) -> "LinearMap":
        return LinearMap(
            n, n, tuple(tuple(sc.ONE if i == j else sc.ZERO for j in range(n)) for i in range(n))
        )

    def column(self, i: int) -> Vector:
        return tuple(row[i] for row in self.matrix)

    def apply(self, x: Vector) -> Vector:
        if len(x) != self.source_dim:
            raise DimensionMismatch("vector length != source dim")
        return tuple(
            sum((row[i] * x[i] for i in range(self.source_dim)), start=sc.ZERO)
            for row in self.matrix
        )


# ---------------------------------------------------------------------------
# Operations


def bracket(L: LieAlgebra, x: Vector, y: Vector) -> Vector:
    """[x, y] = sum_ij x_i y_j [e_i, e_j], over the nonzero components of x
    and y only."""
    if len(x) != L.dim or len(y) != L.dim:
        raise DimensionMismatch("vector length != algebra dim")
    n = L.dim
    ad, r = L.ad_numerators
    nums, den = sc.common_denominator(tuple(x) + tuple(y))
    ys = [(j, b) for j, b in enumerate(nums[n:]) if b]
    acc = [0] * n
    for a, A in zip(nums[:n], ad):
        if a:
            for k, row in enumerate(A):
                for j, b in ys:
                    if row[j]:
                        acc[k] += a * b * row[j]
    return sc.quotients(acc, den * den * r)


def check_jacobi(L: LieAlgebra) -> list:
    """All (i, j, k) 1-based triples, i < j < k, with a nonzero cyclic
    defect [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]: column k of
    ad_{[e_i,e_j]} - [ad_i, ad_j], on numerators over r^2."""
    ad, r = L.ad_numerators
    defects = []
    for i, Ai in enumerate(ad):
        for j in range(i + 1, L.dim):
            Aj = ad[j]
            M = sc.mat_comb(
                (1, -1, 1),
                (sc.mat_comb(sc.column(Ai, j), ad), sc.mat_mul(Ai, Aj), sc.mat_mul(Aj, Ai)),
            )
            cols = sc.nonzero_columns(M, r * r, range(j + 1, L.dim))
            defects += [(i + 1, j + 1, k + 1, v) for k, v in cols]
    return defects


def ad(L: LieAlgebra, x: Vector) -> LinearMap:
    """Matrix of y -> [x, y]."""
    if len(x) != L.dim:
        raise DimensionMismatch("vector length != algebra dim")
    cols = [bracket(L, x, sc.basis_vec(L.dim, j)) for j in range(L.dim)]
    return LinearMap.from_columns(cols)


def center(L: LieAlgebra) -> list:
    """Echelon basis of {x : [x, y] = 0 for all y}."""
    rows = []
    for j in range(L.dim):
        for k in range(L.dim):
            rows.append([L.bracket_basis(i, j)[k] for i in range(L.dim)])
    return sc.nullspace(rows)


def _span_rows(vectors: list) -> list:
    """Echelon basis (nonzero rref rows) of the span of the given vectors."""
    return [tuple(r) for r in sc.rref(vectors)[0]]


def derived_series(L: LieAlgebra) -> list:
    """D^0 = g, D^{k+1} = [D^k, D^k] until stabilization."""
    chain = [[sc.basis_vec(L.dim, i) for i in range(L.dim)]]
    while True:
        current = chain[-1]
        products = [
            bracket(L, current[p], current[q])
            for p in range(len(current))
            for q in range(p + 1, len(current))
        ]
        nxt = _span_rows([v for v in products if any(v)])
        chain.append(nxt)
        if len(nxt) == len(current) or not nxt:
            return chain


def is_solvable(L: LieAlgebra) -> bool:
    return not derived_series(L)[-1]


def derived_dim(L: LieAlgebra) -> int:
    return len(derived_series(L)[1])


def _partial_phi_numerators(L: LieAlgebra, phi: LinearMap) -> tuple:
    """(Ms, den): column j of Ms[i] holds the numerators over den of
    partial_phi at (e_i, e_j), from phi ad_i - ad_i phi - ad_{phi e_i}."""
    ad, r = L.ad_numerators
    P, p = sc.mat_numerators(phi.matrix)
    Ms = [
        sc.mat_comb(
            (1, -1, -1), (sc.mat_mul(P, A), sc.mat_mul(A, P), sc.mat_comb(sc.column(P, i), ad))
        )
        for i, A in enumerate(ad)
    ]
    return Ms, p * r


def partial_phi(L: LieAlgebra, phi: LinearMap) -> dict:
    """The vector-valued 2-form phi([x,y]) - [phi x, y] - [x, phi y] on the
    0-based basis pairs i < j."""
    Ms, den = _partial_phi_numerators(L, phi)
    return {
        (i, j): sc.quotients(sc.column(M, j), den)
        for i, M in enumerate(Ms)
        for j in range(i + 1, L.dim)
    }


def is_derivation(L: LieAlgebra, phi: LinearMap) -> list:
    """Nonzero values of ``partial_phi`` as 1-based (i, j, defect); [] = pass."""
    if phi.source_dim != L.dim or phi.target_dim != L.dim:
        raise DimensionMismatch("map is not an endomorphism of the algebra")
    Ms, den = _partial_phi_numerators(L, phi)
    return [
        (i + 1, j + 1, v)
        for i, M in enumerate(Ms)
        for j, v in sc.nonzero_columns(M, den, range(i + 1, L.dim))
    ]


@dataclass
class IsoReport:
    invertible: bool
    bracket_defects: list
    alpha_defect: Optional[tuple]
    omega_defects: list
    ok: bool

    def __str__(self):
        if self.ok:
            return "isomorphism"
        bits = []
        if not self.invertible:
            bits.append("map not invertible")
        if self.bracket_defects:
            bits.append(f"bracket defects at {[d[:2] for d in self.bracket_defects]}")
        if self.alpha_defect is not None:
            bits.append("alpha pullback mismatch")
        if self.omega_defects:
            bits.append(f"omega pullback mismatch at {[d[:2] for d in self.omega_defects]}")
        return "; ".join(bits)


def check_isomorphism(
    L1: LieAlgebra,
    L2: LieAlgebra,
    M: LinearMap,
    alpha1=None,
    alpha2=None,
    omega1=None,
    omega2=None,
) -> IsoReport:
    """True iff M is invertible, M[x,y]_1 = [Mx, My]_2, and pullbacks match.

    Forms follow the convention M*(alpha2) = alpha1, M*(omega2) = omega1.
    """
    if L1.dim != L2.dim or M.source_dim != L1.dim or M.target_dim != L2.dim:
        raise DimensionMismatch("isomorphism check needs equal dimensions")
    invertible = bool(sc.det_poly([list(r) for r in M.matrix]))
    bracket_defects = []
    for i in range(L1.dim):
        for j in range(i + 1, L1.dim):
            d = sc.vec_sub(
                M.apply(L1.bracket_basis(i, j)),
                bracket(L2, M.column(i), M.column(j)),
            )
            if any(d):
                bracket_defects.append((i + 1, j + 1, d))
    alpha_defect = None
    if alpha1 is not None and alpha2 is not None:
        pulled = tuple(alpha2.apply(M.column(i)) for i in range(L1.dim))
        if pulled != alpha1.coeffs:
            alpha_defect = sc.vec_sub(pulled, alpha1.coeffs)
    omega_defects = []
    if omega1 is not None and omega2 is not None:
        for i in range(L1.dim):
            for j in range(i + 1, L1.dim):
                got = omega2.value(M.column(i), M.column(j))
                want = omega1.value_basis(i, j)
                if got != want:
                    omega_defects.append((i + 1, j + 1, got - want))
    ok = invertible and not bracket_defects and alpha_defect is None and not omega_defects
    return IsoReport(invertible, bracket_defects, alpha_defect, omega_defects, ok)
