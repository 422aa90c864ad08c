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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Optional

from . import scalars as sc
from .errors import (
    DegenerateOmega,
    DimensionMismatch,
    EvenDimension,
    NotCosymplectic,
    NotDerivation,
    NotIst,
    ParametricUnsupported,
    SingularPhi,
)
from .exterior import OneForm, TwoForm, cocycle_spaces, d1, d2, is_2cocycle, volume_coeff
from .lie_core import LieAlgebra, LinearMap, ad, bracket, is_derivation
from .scalars import Scalar, Vector


# ---------------------------------------------------------------------------
# Phi and validation


def phi_map(L: LieAlgebra, alpha: OneForm, omega: TwoForm) -> list:
    """Matrix P with P[l][k] = Phi(e_k)(e_l), so Phi(x) = P x as a covector."""
    if alpha.dim != L.dim or omega.dim != L.dim:
        raise DimensionMismatch("form/algebra dimension mismatch")
    n = L.dim
    return [
        [
            omega.value_basis(k, l) + alpha.coeffs[k] * alpha.coeffs[l]
            for k in range(n)
        ]
        for l in range(n)
    ]


@dataclass
class ValidationReport:
    cocycle1: bool
    cocycle1_defect: Optional[TwoForm]
    cocycle2: bool
    cocycle2_defect: Optional[object]
    volume: Scalar
    volume_nonzero: bool
    ok: bool

    def checks(self) -> list:
        return [
            ("cocycle1", self.cocycle1),
            ("cocycle2", self.cocycle2),
            ("volume", self.volume_nonzero),
        ]

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
    nz = not sc.is_zero(vol)
    return ValidationReport(
        c1, None if c1 else da, c2, None if c2 else dw, vol, nz, c1 and c2 and nz
    )


def reeb(L: LieAlgebra, alpha: OneForm, omega: TwoForm) -> Vector:
    """The unique xi with alpha(xi) = 1 and i_xi(omega) = 0."""
    P = phi_map(L, alpha, omega)
    if sc.is_zero(volume_coeff(L, alpha, omega)):
        raise SingularPhi("alpha ^ omega^n = 0")
    return _solve_reeb(P, alpha)


def _solve_reeb(P: list, alpha: OneForm) -> Vector:
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

    @staticmethod
    def make(L: LieAlgebra, alpha: OneForm, omega: TwoForm) -> "CosymplecticStructure":
        report = validate(L, alpha, omega)
        if not report.ok:
            raise NotCosymplectic(report)
        P = phi_map(L, alpha, omega)
        xi = _solve_reeb(P, alpha)
        return CosymplecticStructure(L, alpha, omega, xi, tuple(tuple(row) for row in P))

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

    def is_parametric(self) -> bool:
        return (
            self.algebra.is_parametric()
            or self.alpha.is_parametric()
            or self.omega.is_parametric()
        )


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
        return c2, det, c2 and not sc.is_zero(det)


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
    (vol/n!)^2) is not the zero polynomial in s, t.  The decision runs in
    three stages:

    1. an exact "no" certificate (``_phi_kernel_certificate``) that needs
       no determinant;
    2. four deterministic rational points, each deciding "yes" by a
       nonzero rational determinant;
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
    z1, z2 = cocycle_spaces(L)
    if _phi_kernel_certificate(L.dim, z1, z2):
        return ExistenceResult(False, sc.ZERO, len(z1), len(z2))
    svars = [f"s{i + 1}" for i in range(len(z1))]
    tvars = [f"t{j + 1}" for j in range(len(z2))]

    def found(assignment) -> ExistenceResult:
        alpha, omega = _span_forms(
            L.dim, z1, z2, [assignment[v] for v in svars], [assignment[v] for v in tvars]
        )
        return ExistenceResult(
            True, None, len(z1), len(z2), alpha, omega, dict(sorted(assignment.items()))
        )

    for assignment in _staged_assignments(svars + tvars):
        hit = found(assignment)
        if not sc.is_zero(sc.det_poly(phi_map(L, hit.alpha, hit.omega))):
            return hit

    n = (L.dim - 1) // 2
    _, generic = _span_forms(L.dim, [], z2, [], [sc.Poly.var(v) for v in tvars])
    for i, z in enumerate(z1):
        vol = volume_coeff(L, z, generic)
        if sc.is_zero(vol):
            continue
        if isinstance(vol, sc.Poly) and vol.total_degree() > n:
            raise AssertionError(
                f"volume polynomial has degree {vol.total_degree()} > n = {n}; "
                f"the values 0..{n} cannot guarantee a witness"
            )
        assignment = {v: sc.ONE if v == svars[i] else sc.ZERO for v in svars}
        for v in tvars:
            for k in range(n + 1):
                rest = sc.scalar_subs(vol, {v: Fraction(k)})
                if not sc.is_zero(rest):
                    break
            else:
                raise AssertionError(f"volume polynomial vanishes at {v} = 0..{n}")
            vol, assignment[v] = rest, Fraction(k)
        return found(assignment)
    return ExistenceResult(False, sc.ZERO, len(z1), len(z2))


def _phi_kernel_certificate(dim: int, z1: list, z2: list) -> bool:
    """True when det(Phi) vanishes identically for a reason that needs no
    determinant: Z^1 = 0 (then Phi = omega is skew of odd order), or some
    v != 0 has alpha(v) = 0 for every alpha in Z^1 and i_v omega = 0 for
    every omega in Z^2, so Phi(v) = 0 at every parameter.  A certified
    algebra has no witness point anywhere."""
    if not z1:
        return True
    rows = [list(a.coeffs) for a in z1]
    if not sc.nullspace(rows):
        return False
    for w in z2:
        rows.extend(w.matrix())
    return bool(sc.nullspace(rows))


def _span_forms(dim: int, z1: list, z2: list, s: list, t: list) -> tuple:
    """(sum s_i z1_i, sum t_j z2_j) for coefficient lists s and t, which
    may be rationals (a witness point) or symbols (the generic forms)."""
    alpha = OneForm(
        dim,
        tuple(
            sum((si * a.coeffs[k] for si, a in zip(s, z1)), start=sc.ZERO)
            for k in range(dim)
        ),
    )
    wc: dict = {}
    for tj, form in zip(t, z2):
        for pair, c in form.coeffs.items():
            wc[pair] = wc.get(pair, sc.ZERO) + tj * c
    return alpha, TwoForm(dim, wc)


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
    kept: tuple               # original indices kept for h (pivot dropped)


def kernel_symplectic(S: CosymplecticStructure) -> KernelReduction:
    """Adapted-basis reduction to (h = ker alpha, omega|_h) plus D = ad_xi|_h.

    The basis of h is chosen by eliminating alpha's smallest-index nonzero
    coefficient: h_k = e_k - (alpha_k / alpha_p) e_p for k != p, in
    increasing k.  xi is appended last.  Deterministic by construction.
    """
    L, alpha = S.algebra, S.alpha
    n = L.dim
    pivot = next(k for k in range(n) if not sc.is_zero(alpha.coeffs[k]))
    ap = alpha.coeffs[pivot]
    kept = tuple(k for k in range(n) if k != pivot)
    hbasis = []
    for k in kept:
        v = list(sc.zero_vec(n))
        v[k] = sc.ONE
        coef = alpha.coeffs[k]
        if not sc.is_zero(coef):
            v[pivot] = -sc._scalar_quot(coef, ap)
        hbasis.append(tuple(v))

    def h_coords(w: Vector) -> Vector:
        # valid for w in ker alpha: coordinates are the kept components
        return tuple(w[k] for k in kept)

    m = len(kept)
    hb = {}
    for a in range(m):
        for b in range(a + 1, m):
            v = bracket(L, hbasis[a], hbasis[b])
            if not sc.vec_is_zero(v):
                hb[(a, b)] = h_coords(v)
    halg = LieAlgebra(m, hb)
    w_h = TwoForm(
        m,
        {
            (a, b): S.omega.value(hbasis[a], hbasis[b])
            for a in range(m)
            for b in range(a + 1, m)
        },
    )
    dcols = [h_coords(bracket(L, S.reeb, hbasis[a])) for a in range(m)]
    deriv = LinearMap.from_columns(dcols) if m else LinearMap.zero(0)
    pair = SymplecticPair(halg, w_h)
    if is_derivation(halg, deriv):
        raise NotDerivation("ad_xi does not restrict to a derivation of ker alpha")
    if not ist_defects_empty(pair, deriv):
        raise NotIst("ad_xi restricted to ker alpha is not an i.s.t.")
    return KernelReduction(pair, deriv, tuple(hbasis) + (S.reeb,), kept)


def ist_defects_empty(P: SymplecticPair, D: LinearMap) -> bool:
    m = P.algebra.dim
    for i in range(m):
        for j in range(i + 1, m):
            lhs = P.omega.value(D.column(i), sc.basis_vec(m, j))
            rhs = P.omega.value(sc.basis_vec(m, i), D.column(j))
            if not sc.is_zero(lhs + rhs):
                return False
    return True


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
    if not ist_defects_empty(P, D):
        raise NotIst("map is not an infinitesimal symplectic transformation")
    n = m + 1
    brackets = {}
    for (i, j), v in P.algebra.brackets.items():
        brackets[(i, j)] = tuple(v) + (sc.ZERO,)
    for i in range(m):
        col = D.column(i)
        if not sc.vec_is_zero(col):
            brackets[(i, m)] = tuple(-x for x in col) + (sc.ZERO,)
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
    wc = dict(omega.coeffs)
    for i in range(L.dim):
        c = alpha.coeffs[i]
        if not sc.is_zero(c):
            wc[(i, L.dim)] = c
    return SymplecticPair(big, TwoForm(n, wc))


# ---------------------------------------------------------------------------
# Left-symmetric products


def _lincomb(n: int, terms) -> Vector:
    """Sum of c * v over the (c, v) in terms, skipping zero coefficients
    and zero components."""
    out = list(sc.zero_vec(n))
    for c, v in terms:
        if sc.is_zero(c):
            continue
        for k, x in enumerate(v):
            if not sc.is_zero(x):
                out[k] += c * x
    return tuple(out)


@dataclass(frozen=True)
class LsaTable:
    dim: int
    products: tuple  # products[i][j] = e_i . e_j as a Vector

    def __post_init__(self):
        p = tuple(tuple(sc.vec(v) for v in row) for row in self.products)
        if len(p) != self.dim or any(
            len(row) != self.dim or any(len(v) != self.dim for v in row) for row in p
        ):
            raise DimensionMismatch("product table shape mismatch")
        object.__setattr__(self, "products", p)

    @staticmethod
    def from_dict(dim: int, entries: dict) -> "LsaTable":
        """1-based {(i, j): {k: coeff}} builder; missing products are zero."""
        rows = [[list(sc.zero_vec(dim)) for _ in range(dim)] for _ in range(dim)]
        for (i, j), comps in entries.items():
            for k, c in comps.items():
                rows[i - 1][j - 1][k - 1] = sc.as_scalar(c)
        return LsaTable(dim, tuple(tuple(tuple(v) for v in row) for row in rows))

    def product(self, x: Vector, y: Vector) -> Vector:
        n, P = self.dim, self.products
        return _lincomb(
            n,
            (
                (x[i] * y[j], P[i][j])
                for i in range(n)
                if not sc.is_zero(x[i])
                for j in range(n)
            ),
        )

    @cached_property
    def associators(self) -> tuple:
        """associators[i][j][k] = (e_i e_j) e_k - e_i (e_j e_k), read off the
        stored products."""
        n, P = self.dim, self.products
        return tuple(
            tuple(
                tuple(
                    _lincomb(
                        n,
                        chain(
                            zip(P[i][j], (row[k] for row in P)),
                            ((-c, P[i][q]) for q, c in enumerate(P[j][k])),
                        ),
                    )
                    for k in range(n)
                )
                for j in range(n)
            )
            for i in range(n)
        )

    def nonzero_entries(self) -> list:
        out = []
        for i in range(self.dim):
            for j in range(self.dim):
                if not sc.vec_is_zero(self.products[i][j]):
                    out.append((i + 1, j + 1, self.products[i][j]))
        return out

    def __eq__(self, other):
        if not isinstance(other, LsaTable):
            return NotImplemented
        return self.dim == other.dim and all(
            sc.vecs_equal(self.products[i][j], other.products[i][j])
            for i in range(self.dim)
            for j in range(self.dim)
        )


def symplectic_lsa(P: SymplecticPair) -> LsaTable:
    """Table solving omega(x*y, z) = -omega(y, [x, z]) on basis pairs; the
    m^2 systems share one matrix and are solved together."""
    m = P.algebra.dim
    omega_m = P.omega.matrix()
    if sc.is_zero(sc.det_poly([row[:] for row in omega_m])):
        raise DegenerateOmega("omega is degenerate on the symplectic algebra")
    omega_t = [[omega_m[k][l] for k in range(m)] for l in range(m)]  # transpose
    rhs = []
    for i in range(m):
        brackets = [P.algebra.bracket_basis(i, l) for l in range(m)]
        for j in range(m):
            ej = sc.basis_vec(m, j)
            rhs.append([-P.omega.value(ej, v) for v in brackets])
    sols = sc.solve_linear(omega_t, rhs)
    return LsaTable(m, tuple(sols[i * m:(i + 1) * m] for i in range(m)))


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
    n = S.dim
    P = [list(row) for row in S.phi]
    rhs = []
    for i in range(n):
        brackets = [S.algebra.bracket_basis(i, l) for l in range(n)]
        for j in range(n):
            phi_j = [S.phi[l][j] for l in range(n)]
            rhs.append([
                -sum((phi_j[mm] * v[mm] for mm in range(n)), start=sc.ZERO)
                for v in brackets
            ])
    sols = sc.solve_linear(P, rhs)
    return LsaTable(n, tuple(sols[i * n:(i + 1) * n] for i in range(n)))


def _lsa_via_parts(S: CosymplecticStructure) -> LsaTable:
    n = S.dim
    red = S.reduction
    star = S.star
    m = red.pair.algebra.dim
    hbasis = red.basis[:m]
    xi = S.reeb
    adxi = ad(S.algebra, xi)

    def h_coords(w: Vector) -> Vector:
        return tuple(w[k] for k in red.kept)

    def h_embed(w: Vector) -> Vector:
        out = sc.zero_vec(n)
        for a in range(m):
            if not sc.is_zero(w[a]):
                out = sc.vec_add(out, sc.vec_scale(w[a], hbasis[a]))
        return out

    rows = []
    for i in range(n):
        ei = sc.basis_vec(n, i)
        ai = S.alpha.apply(ei)
        hi = sc.vec_sub(ei, sc.vec_scale(ai, xi))
        row = []
        for j in range(n):
            ej = sc.basis_vec(n, j)
            aj = S.alpha.apply(ej)
            hj = sc.vec_sub(ej, sc.vec_scale(aj, xi))
            ad_hj = adxi.apply(hj)
            term = h_embed(star.product(h_coords(hi), h_coords(hj)))
            corr = S.omega.value(hi, ad_hj)
            if not sc.is_zero(corr):
                term = sc.vec_add(term, sc.vec_scale(corr, xi))
            if not sc.is_zero(ai):
                term = sc.vec_add(term, sc.vec_scale(ai, ad_hj))
            row.append(term)
        rows.append(tuple(row))
    return LsaTable(n, tuple(rows))


def left_symmetry_defect(T: LsaTable, L: LieAlgebra) -> dict:
    """Associator-symmetry and commutator defects; pass iff both empty."""
    if T.dim != L.dim:
        raise DimensionMismatch("table/algebra dimension mismatch")
    n = T.dim
    A = T.associators
    assoc = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                d = sc.vec_sub(A[i][j][k], A[j][i][k])
                if not sc.vec_is_zero(d):
                    assoc.append((i + 1, j + 1, k + 1, d))
    comm = []
    for i in range(n):
        for j in range(i + 1, n):
            d = sc.vec_sub(
                sc.vec_sub(T.products[i][j], T.products[j][i]), L.bracket_basis(i, j)
            )
            if not sc.vec_is_zero(d):
                comm.append((i + 1, j + 1, d))
    return {"associator": assoc, "commutator": comm, "pass": not assoc and not comm}


@dataclass
class BiinvarianceReport:
    ok: bool
    failed_conditions: list
    associative: bool
    defects: dict


def biinvariance(S: CosymplecticStructure) -> BiinvarianceReport:
    """The four bi-invariance conditions on h, plus an independent
    associativity test of the full product; both reported."""
    red = S.reduction
    star = S.star
    D = red.deriv
    m = red.pair.algebra.dim
    w = red.pair.omega
    A = star.associators
    basis = [sc.basis_vec(m, a) for a in range(m)]
    defects: dict = {1: [], 2: [], 3: [], 4: []}
    for a in range(m):
        x = basis[a]
        # 4: ad_xi^2 = 0 on h
        d4 = D.apply(D.column(a))
        if not sc.vec_is_zero(d4):
            defects[4].append((a + 1, d4))
        for b in range(m):
            y = basis[b]
            # 2: x * ad_xi y = 0
            d2v = star.product(x, D.column(b))
            if not sc.vec_is_zero(d2v):
                defects[2].append((a + 1, b + 1, d2v))
            # 3: (ad_xi x) * y = (ad_xi y) * x
            d3v = sc.vec_sub(star.product(D.column(a), y), star.product(D.column(b), x))
            if not sc.vec_is_zero(d3v):
                defects[3].append((a + 1, b + 1, d3v))
            # 1: (x * y) * z - x * (y * z) = omega(ad_xi y, x) ad_xi z
            coeff = w.value(D.column(b), x)
            for c in range(m):
                d1v = sc.vec_sub(A[a][b][c], sc.vec_scale(coeff, D.column(c)))
                if not sc.vec_is_zero(d1v):
                    defects[1].append((a + 1, b + 1, c + 1, d1v))
    failed = [k for k in (1, 2, 3, 4) if defects[k]]
    associative = all(
        sc.vec_is_zero(v) for plane in S.table.associators for row in plane for v in row
    )
    return BiinvarianceReport(not failed, failed, associative, defects)
