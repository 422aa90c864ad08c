"""Cosymplectic structures: the dual-pairing map Phi, Reeb vectors,
validation, existence decision, kernel reduction to a symplectic pair,
and the associated left-symmetric products.

Conventions used throughout:
  Phi(x) = i_x(omega) + alpha(x) alpha        (a covector)
  the product on g:     Phi(x.y) = -Phi(y) o ad_x
  the product on h:     omega(x*y, z) = -omega(y, [x, z])
Both products are computed independently and compared; their agreement is
itself one of the verified identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from . import scalars as sc
from .errors import (
    DegenerateOmega,
    DimensionMismatch,
    EvenDimension,
    NotCosymplectic,
    NotDerivation,
    NotIst,
    SingularPhi,
    SingularSystem,
)
from .exterior import (
    OneForm,
    TwoForm,
    closed_numerators,
    d1,
    d2,
    form_twist,
    is_2cocycle,
    volume_coeff,
)
from .lie_core import LieAlgebra, LinearMap, is_derivation, zero_based
from .scalars import Scalar, Vector


# ---------------------------------------------------------------------------
# Phi and validation


def phi_map(L: LieAlgebra, alpha: OneForm, omega: TwoForm) -> list:
    """Matrix P with P[l][k] = Phi(e_k)(e_l), so Phi(x) = P x as a covector:
    P = W^T + alpha alpha^T, W omega's skew matrix."""
    if alpha.dim != L.dim or omega.dim != L.dim:
        raise DimensionMismatch("form/algebra dimension mismatch")
    W, a = omega.matrix(), alpha.coeffs
    return [[W[k][l] + a[k] * a[l] for k in range(L.dim)] for l in range(L.dim)]


@dataclass
class ValidationReport:
    cocycle1: bool
    cocycle1_defect: Optional[TwoForm]
    cocycle2: bool
    cocycle2_defect: Optional[object]
    volume: Scalar
    volume_nonzero: bool
    ok: bool

    def __str__(self):
        bits = [
            f"cocycle1: {'ok' if self.cocycle1 else 'FAIL'}",
            f"cocycle2: {'ok' if self.cocycle2 else 'FAIL'}",
            f"volume: {self.volume}"
            + (" (nonzero)" if self.volume_nonzero else " (ZERO)"),
        ]
        return ", ".join(bits)


def validate(L: LieAlgebra, alpha: OneForm, omega: TwoForm) -> ValidationReport:
    """Check the three defining conditions (closed alpha, closed omega,
    nonvanishing alpha ^ omega^n).

    With parametric scalars the volume slot carries the polynomial; it
    counts as nonzero iff it is not the zero polynomial.
    """
    if L.dim % 2 == 0:
        raise EvenDimension("cosymplectic structures live in odd dimension")
    da = d1(L, alpha)
    dw = d2(L, omega)
    vol = volume_coeff(L, alpha, omega)
    c1 = da.is_zero()
    c2 = dw.is_zero()
    nz = bool(vol)
    return ValidationReport(
        c1, None if c1 else da, c2, None if c2 else dw, vol, nz, c1 and c2 and nz
    )


def reeb(L: LieAlgebra, alpha: OneForm, omega: TwoForm) -> Vector:
    """The unique xi with alpha(xi) = 1 and i_xi(omega) = 0."""
    P = phi_map(L, alpha, omega)
    if not volume_coeff(L, alpha, omega):
        raise SingularPhi("alpha ^ omega^n = 0")
    return solve_reeb(P, alpha)


def solve_reeb(P: list, alpha: OneForm) -> Vector:
    """The Reeb vector from the matrix P of Phi (``phi_map``): Phi(xi) =
    alpha.  P must be invertible, i.e. the volume alpha ^ omega^n nonzero;
    callers that validated the triple solve here without computing it again."""
    return tuple(sc.solve_linear(P, [list(alpha.coeffs)])[0])


@dataclass(frozen=True)
class CosymplecticStructure:
    """A validated structure.  Its derived objects (kernel reduction,
    symplectic product, product table) are computed on first use and then
    shared by every check that reads them."""

    algebra: LieAlgebra
    alpha: OneForm
    omega: TwoForm
    reeb: Vector
    phi: tuple  # matrix rows
    report: ValidationReport = field(compare=False, repr=False)

    @staticmethod
    def make(L: LieAlgebra, alpha: OneForm, omega: TwoForm) -> "CosymplecticStructure":
        """The one validation of a triple: raises NotCosymplectic with the
        report when it fails, and keeps the report when it passes."""
        report = validate(L, alpha, omega)
        if not report.ok:
            raise NotCosymplectic(report)
        P = phi_map(L, alpha, omega)
        xi = solve_reeb(P, alpha)
        return CosymplecticStructure(L, alpha, omega, xi, tuple(tuple(row) for row in P), report)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def reduction(self) -> "KernelReduction":
        return kernel_symplectic(self)

    @cached_property
    def star(self) -> "LsaTable":
        return symplectic_lsa(self.reduction.pair)

    @cached_property
    def table(self) -> "LsaTable":
        return cosymplectic_lsa(self)


@dataclass(frozen=True)
class SymplecticPair:
    algebra: LieAlgebra
    omega: TwoForm

    def __post_init__(self):
        if self.omega.dim != self.algebra.dim:
            raise DimensionMismatch("form/algebra dimension mismatch")

    def validate(self):
        """(cocycle ok, det(omega) scalar, overall ok)."""
        c2 = is_2cocycle(self.algebra, self.omega)
        det = sc.det_poly(self.omega.matrix())
        return c2, det, c2 and bool(det)


# ---------------------------------------------------------------------------
# Existence decision


@dataclass
class ExistenceResult:
    exists: bool
    det: Optional[Scalar]  # "no": the zero polynomial det Phi = (vol/n!)^2,
    #                        certified by a common kernel or by the volume
    #                        polynomials; "yes": None
    z1_dim: int
    z2_dim: int
    alpha: Optional[OneForm] = None
    omega: Optional[TwoForm] = None
    witness: Optional[dict] = None


def exists_cosymplectic(L: LieAlgebra) -> ExistenceResult:
    """Decide existence of a cosymplectic structure on L.

    Over the cocycle spaces, alpha = sum s_i z1_i and omega = sum t_j z2_j;
    a structure exists iff vol = alpha ^ omega^n (equivalently det Phi =
    (vol/n!)^2) is not the zero polynomial in s, t.  The bases are the int
    rows of ``closed_numerators``, over one denominator per space, and the
    forms are built as Scalars only for the witness.  The decision runs in
    three stages:

    1. an exact "no" certificate (``_phi_kernel_certificate``) that needs
       no determinant;
    2. four deterministic rational points, each deciding "yes" by a
       nonzero determinant of Phi, taken on int numerators
       (``_phi_numerators``);
    3. the volume polynomials V_i(t) = vol(z1_i, sum t_j z2_j).  vol is
       linear in s, so it vanishes identically iff every V_i does ("no").
       Otherwise s_i = 1, the other s are 0, and the first nonzero V_i,
       homogeneous of degree n (the bound is checked), stays nonzero when
       t_1, t_2, ... are fixed in turn to the first value in {0, ..., n}
       that does not kill it: a nonzero polynomial of degree <= n in one
       variable has at most n roots (Alon, Combinatorial Nullstellensatz).
    """
    if L.dim % 2 == 0:
        raise EvenDimension("existence question needs odd dimension")
    dim = L.dim
    _, z1, p = closed_numerators(L, 1)
    pairs, z2, q = closed_numerators(L, 2)
    if _phi_kernel_certificate(pairs, z1, p, z2):
        return ExistenceResult(False, sc.ZERO, len(z1), len(z2))
    svars = [f"s{i + 1}" for i in range(len(z1))]
    tvars = [f"t{j + 1}" for j in range(len(z2))]

    def at(assignment) -> tuple:
        return (
            _combination(z1, p, [assignment[v] for v in svars]),
            _combination(z2, q, [assignment[v] for v in tvars]),
        )

    def found(assignment, alpha, omega) -> ExistenceResult:
        return ExistenceResult(
            True,
            None,
            len(z1),
            len(z2),
            OneForm(dim, sc.quotients(*alpha)),
            TwoForm(dim, dict(zip(pairs, sc.quotients(*omega)))),
            dict(sorted(assignment.items())),
        )

    for assignment in _staged_assignments(svars + tvars):
        alpha, omega = at(assignment)
        if sc.det_poly(_phi_numerators(pairs, *alpha, *omega)):
            return found(assignment, alpha, omega)

    n = (dim - 1) // 2
    w, e = _combination(z2, q, [sc.Poly.var(v) for v in tvars])
    generic = TwoForm(dim, dict(zip(pairs, sc.quotients(w, e))))
    for i, z in enumerate(z1):
        vol = volume_coeff(L, OneForm(dim, sc.quotients(z, p)), generic)
        if not vol:
            continue
        if sc.total_degree(vol) > n:
            raise AssertionError(
                f"volume polynomial has degree {sc.total_degree(vol)} > n = {n}; "
                f"the values 0..{n} cannot guarantee a witness"
            )
        assignment = {v: sc.ONE if v == svars[i] else sc.ZERO for v in svars}
        for v in tvars:
            for k in range(n + 1):
                rest = sc.scalar_subs(vol, {v: Fraction(k)})
                if rest:
                    break
            else:
                raise AssertionError(f"volume polynomial vanishes at {v} = 0..{n}")
            vol, assignment[v] = rest, Fraction(k)
        return found(assignment, *at(assignment))
    return ExistenceResult(False, sc.ZERO, len(z1), len(z2))


def _phi_kernel_certificate(pairs: list, z1: list, den, z2: list) -> bool:
    """True when det(Phi) vanishes identically for a reason that needs no
    determinant: Z^1 = 0 (then Phi = omega is skew of odd order), or some
    v != 0 in ann Z^1 = [g, g] has i_v omega = 0 for every omega in Z^2, so
    Phi(v) = 0 at every parameter.  A certified algebra has no witness
    point anywhere.  z1 and z2 are the rows of ``closed_numerators``, z1's
    over den.

    With k_1..k_m a basis of ann Z^1, v = sum c_i k_i, so v exists iff the
    m vectors (i_{k_i} omega for every omega in Z^2) are dependent: one
    rank test on m rows, m = dim [g, g], not on dim columns.  The basis is
    read off Z^1's echelon rows: the row z_f has den in its free slot f,
    its last nonzero slot, and 0 in the other free slots, so v kills Z^1
    iff den v_f = -sum_p z_f[p] v_p over the other slots p, whose values
    are free: k_p has den in slot p and -z_f[p] in each free slot f."""
    if not z1:
        return True
    free = {max(k for k, x in enumerate(z) if x): z for z in z1}
    dim = len(z1[0])
    kernel = [
        [-free[k][p] if k in free else den if k == p else 0 for k in range(dim)]
        for p in range(dim)
        if p not in free
    ]
    rows = []
    for v in kernel:
        row = []
        for w in z2:
            iv = [0] * dim  # i_v omega: W[i][j] = x and W[j][i] = -x
            for (i, j), x in zip(pairs, w):
                if x:
                    iv[i] += x * v[j]
                    iv[j] -= x * v[i]
            row += iv
        rows.append(row)
    return sc.rank(rows) < len(kernel)


def _combination(rows: list, den, values: list) -> tuple:
    """(nums, d) with sum_i values[i] rows[i] / den = nums / d, for the int
    rows of a cocycle basis over den: the one builder of alpha and omega,
    at a rational point (int nums) or over symbols (Poly nums)."""
    nums, d = sc.common_denominator(values)
    return sc.mat_mul([nums], rows)[0], den * d


def _phi_numerators(pairs: list, a: list, da, w: list, dw) -> list:
    """``phi_map``'s W^T + alpha alpha^T for alpha = a / da and omega with
    coefficients w / dw on pairs, times da^2 dw: an int matrix whose
    determinant is det Phi times (da^2 dw)^dim, zero iff det Phi is."""
    c = da * da
    P = [[dw * x * y for x in a] for y in a]
    for (i, j), x in zip(pairs, w):
        if x:
            P[j][i] += c * x
            P[i][j] -= c * x
    return P


def _staged_assignments(variables):
    """Four cheap deterministic candidate points: all-ones, distinct
    integers, alternating signs, reciprocals."""
    if not variables:
        yield {}
        return
    yield {v: Fraction(1) for v in variables}
    yield {v: Fraction(i + 1) for i, v in enumerate(variables)}
    yield {v: Fraction((i + 1) * (-1) ** i) for i, v in enumerate(variables)}
    yield {v: Fraction(1, i + 1) for i, v in enumerate(variables)}


# ---------------------------------------------------------------------------
# Kernel reduction and the symplectization


@dataclass
class KernelReduction:
    pair: SymplecticPair
    deriv: LinearMap          # ad_xi restricted to h, in the adapted basis
    basis: tuple              # adapted basis vectors of g: h_1..h_2n, xi
    coords: tuple             # inverse of the basis matrix: adapted coordinates

    @cached_property
    def numerators(self) -> tuple:
        """(D, W, B, C, q): ad_xi|_h, omega|_h, the adapted basis matrix
        (columns h_1..h_2n, xi) and its inverse ``coords``, as matrices of
        ring numerators over one common denominator q."""
        m = self.pair.algebra.dim  # D and W have m rows, B and C have m + 1
        rows, q = sc.mat_numerators(
            [*self.deriv.matrix, *self.pair.omega.matrix(), *zip(*self.basis), *self.coords]
        )
        return rows[:m], rows[m:2 * m], rows[2 * m:3 * m + 1], rows[3 * m + 1:], q


def kernel_symplectic(S: CosymplecticStructure) -> KernelReduction:
    """Adapted-basis reduction to (h = ker alpha, omega|_h) plus D = ad_xi|_h.

    The basis of h is chosen by eliminating alpha's smallest-index nonzero
    coefficient: h_k = e_k - (alpha_k / alpha_p) e_p for k != p, in
    increasing k.  xi is appended last.  Deterministic by construction.
    """
    L, alpha = S.algebra, S.alpha
    n = L.dim
    pivot = next(k for k in range(n) if alpha.coeffs[k])
    ap = alpha.coeffs[pivot]
    kept = tuple(k for k in range(n) if k != pivot)
    hbasis = []
    for k in kept:
        v = list(sc.zero_vec(n))
        v[k] = sc.ONE
        coef = alpha.coeffs[k]
        if coef:
            v[pivot] = -(coef / ap)
        hbasis.append(tuple(v))

    # The change of basis on numerators, with H the columns h_a over h: the
    # brackets [h_a, h_b] and [xi, h_b] are the columns b of ad_x H for
    # x = h_a and x = xi, and omega(h_a, h_b) is H^T W H.  A bracket lies in
    # ker alpha (alpha is closed), where the adapted coordinates (the rows
    # of ``coords``) are the kept components.
    m = len(kept)
    ad, r = L.ad_numerators
    H, h = sc.mat_numerators([[v[p] for v in hbasis] for p in range(n)])
    X, x = sc.common_denominator(S.reeb)
    W, w = sc.mat_numerators(S.omega.matrix())
    hb = {}
    for a in range(m):
        M = sc.mat_mul(sc.mat_comb(sc.column(H, a), ad), H)
        cols = sc.nonzero_columns([M[k] for k in kept], h * h * r, range(a + 1, m))
        hb.update(((a, b), v) for b, v in cols)
    halg = LieAlgebra(m, hb)
    Wh = sc.mat_mul(list(zip(*H)), sc.mat_mul(W, H))
    wh = {(a, b): Wh[a][b] for a in range(m) for b in range(a + 1, m) if Wh[a][b]}
    w_h = TwoForm(m, dict(zip(wh, sc.quotients(list(wh.values()), h * h * w))))
    XH = sc.mat_mul(sc.mat_comb(X, ad), H)
    deriv = LinearMap(m, m, tuple(sc.quotients(XH[k], x * h * r) for k in kept))
    pair = SymplecticPair(halg, w_h)
    if is_derivation(halg, deriv):
        raise NotDerivation("ad_xi does not restrict to a derivation of ker alpha")
    if not form_twist(w_h, deriv).is_zero():
        raise NotIst("ad_xi restricted to ker alpha is not an i.s.t.")
    # x = h + alpha(x) xi, and the h_k coordinate of h = x - alpha(x) xi is
    # its k-th component
    coords = tuple(
        tuple((sc.ONE if i == k else sc.ZERO) - alpha.coeffs[i] * S.reeb[k] for i in range(n))
        for k in kept
    ) + (alpha.coeffs,)
    return KernelReduction(pair, deriv, tuple(hbasis) + (S.reeb,), coords)


def from_symplectic_derivation(P: SymplecticPair, D: LinearMap) -> CosymplecticStructure:
    """Rebuild the odd-dimensional structure from (h, omega_h, D).

    g = h + <xi> with [xi, x] = Dx, alpha = xi^*, omega extending omega_h
    by i_xi(omega) = 0.
    """
    m = P.algebra.dim
    if D.source_dim != m or D.target_dim != m:
        raise DimensionMismatch("derivation must be an endomorphism of the pair")
    if is_derivation(P.algebra, D):
        raise NotDerivation("map is not a derivation of the symplectic algebra")
    if not form_twist(P.omega, D).is_zero():
        raise NotIst("map is not an infinitesimal symplectic transformation")
    n = m + 1
    brackets = {}
    for (i, j), v in P.algebra.brackets.items():
        brackets[(i, j)] = tuple(v) + (sc.ZERO,)
    for i in range(m):
        brackets[(i, m)] = tuple(-x for x in D.column(i)) + (sc.ZERO,)
    L = LieAlgebra(n, brackets)
    alpha = OneForm.dual(n, n)
    omega = TwoForm(n, dict(P.omega.coeffs))
    return CosymplecticStructure.make(L, alpha, omega)


def to_symplectic(L: LieAlgebra, alpha: OneForm, omega: TwoForm) -> SymplecticPair:
    """Central extension by zero: (L + <e>, omega + alpha ^ e^*).

    No validity checks on purpose; whether the output is symplectic is
    exactly equivalent to the input being cosymplectic.
    """
    n = L.dim + 1
    brackets = {ij: tuple(v) + (sc.ZERO,) for ij, v in L.brackets.items()}
    big = LieAlgebra(n, brackets)
    wc = {**omega.coeffs, **{(i, L.dim): c for i, c in enumerate(alpha.coeffs)}}
    return SymplecticPair(big, TwoForm(n, wc))


# ---------------------------------------------------------------------------
# Left-symmetric products


# A product table keeps the matrices of left multiplication as ring
# numerators over one common denominator.  ``scalars`` chooses them (ints
# for rational data, symbolic values or Polys otherwise) and multiplies and
# combines the matrices (``mat_mul``, ``mat_comb``); the steps below use
# only +, -, * and truth tests, so rational and symbolic tables share every
# one of them.


@dataclass(frozen=True, init=False, eq=False)
class LsaTable:
    """A product table: e_i . e_j = sum_k left[i][k][j] e_k / den.

    ``left[i]`` is the matrix of left multiplication by e_i, its entries
    ring numerators over the one denominator ``den``.  Every identity on a
    table is an exact identity on numerators; a defect becomes Scalars only
    when it is reported.
    """

    dim: int
    left: tuple
    den: object

    def __init__(self, dim: int, products):
        """``products[i][j]`` = e_i . e_j as a vector of Scalars."""
        if len(products) != dim or any(
            len(row) != dim or any(len(v) != dim for v in row) for row in products
        ):
            raise DimensionMismatch("product table shape mismatch")
        nums, den = sc.common_denominator([x for row in products for v in row for x in v])
        n = dim
        left = [[[nums[(i * n + j) * n + k] for j in range(n)] for k in range(n)] for i in range(n)]
        self._fill(dim, left, den)

    def _fill(self, dim, left, den):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "left", tuple(tuple(map(tuple, M)) for M in left))
        object.__setattr__(self, "den", den)

    @classmethod
    def over(cls, dim: int, left, den) -> "LsaTable":
        """The table with left-multiplication numerators ``left`` over ``den``."""
        table = cls.__new__(cls)
        table._fill(dim, left, den)
        return table

    @staticmethod
    def from_dict(dim: int, entries: dict) -> "LsaTable":
        """1-based {(i, j): {k: coeff}} builder; missing products are zero."""
        rows = [[list(sc.zero_vec(dim)) for _ in range(dim)] for _ in range(dim)]
        for (i, j), comps in entries.items():
            row = rows[zero_based(dim, i, "product index")][zero_based(dim, j, "product index")]
            for k, c in comps.items():
                row[zero_based(dim, k, "product index")] = sc.as_scalar(c)
        return LsaTable(dim, rows)

    @cached_property
    def products(self) -> tuple:
        """products[i][j] = e_i . e_j as a vector of Scalars."""
        n = self.dim
        flat = sc.quotients(
            [self.left[i][k][j] for i in range(n) for j in range(n) for k in range(n)], self.den
        )
        return tuple(
            tuple(flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)) for i in range(n)
        )

    def associator(self, i: int, j: int) -> list:
        """L_{e_i e_j} - L_i L_j over den^2: its column k holds the
        numerators of the associator (e_i e_j) e_k - e_i (e_j e_k)."""
        L = self.left
        Li = L[i]
        return sc.mat_comb((*sc.column(Li, j), -1), (*L, sc.mat_mul(Li, L[j])))

    @cached_property
    def associator_numerators(self) -> tuple:
        """[i][j] = ``associator(i, j)`` for every pair."""
        n = self.dim
        return tuple(tuple(self.associator(i, j) for j in range(n)) for i in range(n))

    def nonzero_entries(self) -> list:
        n = self.dim
        return [
            (i + 1, j + 1, self.products[i][j])
            for i in range(n)
            for j in range(n)
            if any(sc.column(self.left[i], j))
        ]

    def __eq__(self, other):
        if not isinstance(other, LsaTable):
            return NotImplemented
        a, b = self.den, other.den
        return self.dim == other.dim and not any(
            x * b - y * a
            for A, B in zip(self.left, other.left)
            for row_a, row_b in zip(A, B)
            for x, y in zip(row_a, row_b)
            if x or y
        )


def _solve_products(M: list, L: LieAlgebra) -> LsaTable:
    """The table with M(x.y) = -(M y) o ad_x, where M x is the covector
    paired with x.  On numerators M' of M and ad_i of L (over r), the
    right-hand sides of e_i . e_j are the rows j of -M'^T ad_i; all n^2 of
    them share the matrix M' and are solved in one elimination, whose
    solution over den is the table over den r."""
    n = L.dim
    Mn, _ = sc.mat_numerators(M)
    ad, r = L.ad_numerators
    minus_MT = [[-x for x in col] for col in zip(*Mn)]
    rhs = [row for A in ad for row in sc.mat_mul(minus_MT, A)]
    nums, den = sc.solve_fraction_free(Mn, rhs)
    left = [[[nums[i * n + j][k] for j in range(n)] for k in range(n)] for i in range(n)]
    return LsaTable.over(n, left, den * r)


def symplectic_lsa(P: SymplecticPair) -> LsaTable:
    """Table solving omega(x*y, z) = -omega(y, [x, z]) on basis pairs; the
    covector paired with x is i_x omega, whose matrix is omega^T."""
    m = P.algebra.dim
    omega_m = P.omega.matrix()
    try:
        return _solve_products([[omega_m[k][l] for k in range(m)] for l in range(m)], P.algebra)
    except SingularSystem:
        raise DegenerateOmega("omega is degenerate on the symplectic algebra") from None


def cosymplectic_lsa(S: CosymplecticStructure) -> LsaTable:
    """The full left-symmetric table on g.

    Computed by solving Phi(x.y) = -Phi(y) o ad_x, and independently by
    assembling the kernel-reduction parts (x*y on h, the
    omega(x, ad_xi y) xi correction, xi.x = ad_xi x, x.xi = 0).  The two
    must agree entry by entry.
    """
    direct = _lsa_via_phi(S)
    if direct != _lsa_via_parts(S):
        raise AssertionError("product construction routes disagree")
    return direct


def _lsa_via_phi(S: CosymplecticStructure) -> LsaTable:
    return _solve_products([list(row) for row in S.phi], S.algebra)


def _lsa_via_parts(S: CosymplecticStructure) -> LsaTable:
    """The table from the kernel reduction alone, never touching Phi.  In
    the adapted basis (h_1..h_2n, xi) the parts already form a table:

        h_a.h_b = h_a * h_b + omega(h_a, D h_b) xi,   xi.h_b = D h_b,
        h_a.xi = xi.xi = 0;

    with B the adapted basis matrix and C its inverse, the left
    multiplication by e_i is then B (sum_a C[a][i] L'_a) C."""
    n = S.dim
    star = S.star
    D, W, B, C, q = S.reduction.numerators
    d, qq = star.den, q * q
    WD = sc.mat_mul(W, D)  # omega(h_a, D h_b) over q^2
    adapted = [
        [[x * qq for x in row] + [0] for row in La] + [[x * d for x in WD[a]] + [0]]
        for a, La in enumerate(star.left)
    ]
    adapted.append([[x * q * d for x in row] + [0] for row in D] + [[0] * n])
    left = [sc.mat_mul(sc.mat_mul(B, sc.mat_comb(sc.column(C, i), adapted)), C) for i in range(n)]
    return LsaTable.over(n, left, d * qq * qq * q)


def left_symmetry_defect(T: LsaTable, L: LieAlgebra) -> dict:
    """Associator-symmetry and commutator defects; pass iff both empty.  On
    T's numerators, for i < j: the associator of (e_i, e_j) minus that of
    (e_j, e_i) is L_{e_i e_j - e_j e_i} - (L_i L_j - L_j L_i), column by
    column; and e_i e_j - e_j e_i = [e_i, e_j] as column j of L_i - R_i =
    ad_i, R_i the right multiplication by e_i, cross-multiplied with the
    denominator of the structure constants."""
    if T.dim != L.dim:
        raise DimensionMismatch("table/algebra dimension mismatch")
    n, d, left = T.dim, T.den, T.left
    assoc = []
    for i, Li in enumerate(left):
        for j in range(i + 1, n):
            Lj = left[j]
            e_ij = [x - y for x, y in zip(sc.column(Li, j), sc.column(Lj, i))]
            M = sc.mat_comb((*e_ij, -1, 1), (*left, sc.mat_mul(Li, Lj), sc.mat_mul(Lj, Li)))
            assoc += [(i + 1, j + 1, k + 1, v) for k, v in sc.nonzero_columns(M, d * d, range(n))]
    ad, r = L.ad_numerators
    comm = []
    for i, Li in enumerate(left):
        Ri = [[Lj[k][i] for Lj in left] for k in range(n)]  # column j: e_j e_i
        M = sc.mat_comb((r, -r, -d), (Li, Ri, ad[i]))
        comm += [(i + 1, j + 1, v) for j, v in sc.nonzero_columns(M, d * r, range(i + 1, n))]
    return {"associator": assoc, "commutator": comm, "pass": not assoc and not comm}


def deriv_identity_defect(S: CosymplecticStructure) -> list:
    """Where D = ad_xi|_h fails the derivation identity D(x*y) = Dx*y + x*Dy
    of the kernel product, checked as [D, L_a] = L_{D e_a} on numerators:
    1-based (a, b, defect at e_b); [] = pass."""
    D, _, _, _, q = S.reduction.numerators
    Ls, d = S.star.left, S.star.den
    out = []
    for a, La in enumerate(Ls):
        M = sc.mat_comb(
            (1, -1, -1), (sc.mat_mul(D, La), sc.mat_mul(La, D), sc.mat_comb(sc.column(D, a), Ls))
        )
        out += [(a + 1, b + 1, v) for b, v in sc.nonzero_columns(M, q * d, range(len(Ls)))]
    return out


@dataclass
class BiinvarianceReport:
    ok: bool
    failed_conditions: list
    associative: bool
    defects: dict


def biinvariance(S: CosymplecticStructure) -> BiinvarianceReport:
    """The four bi-invariance conditions on h, plus an independent
    associativity test of the full product; both reported.  With D =
    ad_xi|_h and L_a the left multiplications of the kernel product, each
    condition is a matrix identity on numerators:

      1. L_{e_a e_b} - L_a L_b = omega(D e_b, e_a) D
      2. L_a D = 0                       (x * Dy = 0)
      3. L_{D e_a} e_b = L_{D e_b} e_a   ((Dx) * y = (Dy) * x)
      4. D^2 = 0
    """
    D, W, _, _, q = S.reduction.numerators
    star = S.star
    Ls, d = star.left, star.den
    A = star.associator_numerators
    m = len(Ls)
    dd, qqq, every = d * d, q * q * q, range(m)
    coeff = sc.mat_mul(list(zip(*D)), W)  # omega(D e_b, e_a) over q^2
    LDe = [sc.mat_comb(sc.column(D, a), Ls) for a in every]
    cols = sc.nonzero_columns(sc.mat_mul(D, D), q * q, every)
    defects: dict = {1: [], 2: [], 3: [], 4: [(a + 1, v) for a, v in cols]}
    for a, La in enumerate(Ls):
        cols = sc.nonzero_columns(sc.mat_mul(La, D), d * q, every)
        defects[2] += [(a + 1, b + 1, v) for b, v in cols]
        R = [[LDe[b][k][a] for b in every] for k in every]  # column b: L_{D e_b} e_a
        cols = sc.nonzero_columns(sc.mat_comb((1, -1), (LDe[a], R)), d * q, every)
        defects[3] += [(a + 1, b + 1, v) for b, v in cols]
        for b in every:
            M = sc.mat_comb((qqq, -coeff[b][a] * dd), (A[a][b], D))
            cols = sc.nonzero_columns(M, dd * qqq, every)
            defects[1] += [(a + 1, b + 1, k + 1, v) for k, v in cols]
    failed = [k for k in (1, 2, 3, 4) if defects[k]]
    table, n = S.table, S.dim  # the first nonzero associator entry decides
    associative = not any(
        x for i in range(n) for j in range(n) for row in table.associator(i, j) for x in row
    )
    return BiinvarianceReport(not failed, failed, associative, defects)
