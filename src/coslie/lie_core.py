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
(``scalars.nonzero_columns``); no function makes one bracket per basis
pair.  The Chevalley-Eilenberg differential d is built here, once per
algebra and degree (``differential``): Jacobi is d o d = 0 on 1-forms,
and ``exterior`` applies the same rows to forms.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Mapping, Optional, Sequence

from . import scalars as sc
from .errors import DimensionMismatch
from .scalars import Vector


def zero_based(dim: int, k: int, what: str) -> int:
    """The 0-based place of the 1-based index k of a human-facing
    constructor: a DimensionMismatch naming k as what unless 1 <= k <= dim."""
    if not 1 <= k <= dim:
        raise DimensionMismatch(f"{what} {k} is not in 1..{dim}")
    return k - 1


def zero_based_pair(dim: int, i: int, j: int, what: str) -> tuple:
    """The 0-based pair of the 1-based pair (i, j) of a human-facing
    constructor: a DimensionMismatch naming it unless 1 <= i < j <= dim."""
    pair = (zero_based(dim, i, what), zero_based(dim, j, what))
    if i >= j:
        raise DimensionMismatch(f"{what} pair {(i, j)} is not increasing")
    return pair


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
                v[zero_based(dim, k, "bracket component")] += sc.as_scalar(coeff)
            brackets[zero_based_pair(dim, i, j, "bracket index")] = tuple(v)
        return LieAlgebra(dim, brackets)

    @staticmethod
    def abelian(dim: int) -> "LieAlgebra":
        return LieAlgebra(dim, {})

    # -- basic structure ----------------------------------------------
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

    @cached_property
    def _differentials(self) -> dict:
        return {}  # degree k -> the rows of ``differential(self, k)``

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
        if not columns:
            raise DimensionMismatch("a map needs at least one column")
        target = len(columns[0])
        for c, col in enumerate(columns):
            if len(col) != target:
                raise DimensionMismatch(f"column {c + 1} has {len(col)} entries, not {target}")
        return LinearMap(len(columns), target, tuple(zip(*columns)))

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


# ---------------------------------------------------------------------------
# Operations


def bracket(L: LieAlgebra, x: Vector, y: Vector) -> Vector:
    """[x, y] = ad_x y, with ad_x = sum_i x_i ad_i, on numerators."""
    if len(x) != L.dim or len(y) != L.dim:
        raise DimensionMismatch("vector length != algebra dim")
    n = L.dim
    ad, r = L.ad_numerators
    nums, den = sc.common_denominator(tuple(x) + tuple(y))
    Y = [[b] for b in nums[n:]]
    return sc.quotients(sc.column(sc.mat_mul(sc.mat_comb(nums[:n], ad), Y), 0), den * den * r)


def differential(L: LieAlgebra, k: int) -> list:
    """The matrix of d: Lambda^k -> Lambda^(k+1), k >= 0, as sparse rows of
    ring numerators over r of ``L.ad_numerators``: ``(T, {S: c})`` for each
    increasing (k+1)-tuple T whose row is nonzero, in lexicographic order,
    with d(theta)(e_T) = sum c * theta_S / r over increasing k-tuples S;
    built once per algebra and degree and shared, so callers only read it."""
    if k < 0:
        raise ValueError(f"no differential on forms of degree {k}")
    built = L._differentials
    if k not in built:
        built[k] = _differential_rows(L, k)
    return built[k]


def _differential_rows(L: LieAlgebra, k: int) -> list:
    """The rows of ``differential`` in the sign convention of ``exterior``; d
    is zero on Lambda^0.  A component x on e_l of [e_i, e_j], i < j, enters
    the row of each T = {i, j} u rest, rest any k - 1 other indices, in the
    one monomial S = {l} u rest, with the sign (-1)^(a+b) of the places a, b
    of i, j in T times (-1)^(place of l in S) of moving e_l there."""
    if k == 0:
        return []
    ad = L.ad_numerators[0]
    rows: dict = {}
    for i, j in L.brackets:
        components = [(l, x, -x) for l, row in enumerate(ad[i]) if (x := row[j])]
        for rest in combinations([m for m in range(L.dim) if m != i and m != j], k - 1):
            T = tuple(sorted((i, j) + rest))
            sign = (T.index(i) + T.index(j)) % 2
            row = rows.setdefault(T, {})
            for l, x, minus_x in components:
                if l not in rest:
                    pos = bisect_left(rest, l)
                    S = rest[:pos] + (l,) + rest[pos:]
                    row[S] = row.get(S, 0) + (minus_x if (sign + pos) % 2 else x)
    rows = ((T, {S: c for S, c in row.items() if c}) for T, row in sorted(rows.items()))
    return [(T, row) for T, row in rows if row]


def check_jacobi(L: LieAlgebra) -> list:
    """All (i, j, k) 1-based triples, i < j < k, with a nonzero cyclic
    defect [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j].  Jacobi is
    d o d = 0 on 1-forms: d(d e^m)(e_i, e_j, e_k) is the e_m component of
    that defect, so it is row (i, j, k) of the product of the degree-2 and
    the degree-1 rows of ``differential``, on numerators over r^2."""
    lower = dict(differential(L, 1))
    r = L.ad_numerators[1]
    defects = []
    for T, row in differential(L, 2):
        acc = [0] * L.dim
        for S, c in row.items():
            for (m,), x in lower.get(S, {}).items():
                acc[m] += c * x
        if any(acc):
            defects.append((*(t + 1 for t in T), sc.quotients(acc, r * r)))
    return defects


def ad(L: LieAlgebra, x: Vector) -> LinearMap:
    """Matrix of y -> [x, y]: sum_i x_i ad_i on numerators."""
    if len(x) != L.dim:
        raise DimensionMismatch("vector length != algebra dim")
    ad, r = L.ad_numerators
    nums, den = sc.common_denominator(x)
    A = sc.mat_comb(nums, ad)
    return LinearMap(L.dim, L.dim, tuple(sc.quotients(row, den * r) for row in A))


def center(L: LieAlgebra) -> list:
    """Echelon basis of {x : [x, y] = 0 for all y}: the kernel of every ad_{e_j}."""
    ad, r = L.ad_numerators
    return sc.nullspace([sc.quotients(row, r) for A in ad for row in A])


def derived_series(L: LieAlgebra) -> list:
    """D^0 = g, D^{k+1} = [D^k, D^k] until stabilization: with X the columns
    x_p spanning D^k, [x_p, x_q] is column q of ad_{x_p} X."""
    ad, r = L.ad_numerators
    chain = [[sc.basis_vec(L.dim, i) for i in range(L.dim)]]
    while len(chain) == 1 or 0 < len(chain[-1]) < len(chain[-2]):
        rows, den = sc.mat_numerators(chain[-1])
        X, m, products = list(zip(*rows)), len(rows), []
        for p, x in enumerate(rows):
            P = sc.mat_mul(sc.mat_comb(x, ad), X)
            products += [v for _, v in sc.nonzero_columns(P, den * den * r, range(p + 1, m))]
        chain.append([tuple(v) for v in sc.rref(products)[0]])  # echelon basis of the span
    return chain


def is_solvable(L: LieAlgebra) -> bool:
    return not derived_series(L)[-1]


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

    Forms follow the convention M*(alpha2) = alpha1, M*(omega2) = omega1;
    every form given must have the algebras' dimension.
    """
    forms = (alpha1, alpha2, omega1, omega2)
    dims = {L2.dim, M.source_dim, M.target_dim, *(f.dim for f in forms if f is not None)}
    if dims != {L1.dim}:
        raise DimensionMismatch("isomorphism check needs equal dimensions")
    invertible = bool(sc.det_poly([list(r) for r in M.matrix]))
    n = L1.dim
    (ad1, r1), (ad2, r2) = L1.ad_numerators, L2.ad_numerators
    N, m = sc.mat_numerators(M.matrix)
    bracket_defects = []
    for i in range(n):
        # column j of M ad1_i - ad2_{M e_i} M is M[e_i, e_j]_1 - [M e_i, M e_j]_2
        D = sc.mat_comb(
            (m * r2, -r1),
            (sc.mat_mul(N, ad1[i]), sc.mat_mul(sc.mat_comb(sc.column(N, i), ad2), N)),
        )
        cols = sc.nonzero_columns(D, m * m * r1 * r2, range(i + 1, n))
        bracket_defects += [(i + 1, j + 1, d) for j, d in cols]
    alpha_defect = None
    if alpha1 is not None and alpha2 is not None:
        pulled = sc.mat_vec(list(zip(*M.matrix)), alpha2.coeffs)  # alpha2^T M
        if pulled != alpha1.coeffs:
            alpha_defect = sc.vec_sub(pulled, alpha1.coeffs)
    omega_defects = []
    if omega1 is not None and omega2 is not None:
        # M^T W2 M - W1 on numerators over m^2 w1 w2
        W1, w1 = sc.mat_numerators(omega1.matrix())
        W2, w2 = sc.mat_numerators(omega2.matrix())
        D = sc.mat_comb((w1, -m * m * w2), (sc.mat_mul(list(zip(*N)), sc.mat_mul(W2, N)), W1))
        for i, row in enumerate(D):
            omega_defects += [
                (i + 1, j + 1, sc.ratfn(row[j], m * m * w1 * w2)) for j in range(i + 1, n) if row[j]
            ]
    ok = invertible and not bracket_defects and alpha_defect is None and not omega_defects
    return IsoReport(invertible, bracket_defects, alpha_defect, omega_defects, ok)
