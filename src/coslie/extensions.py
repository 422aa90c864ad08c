"""Double extensions of Lie algebras and the three cosymplectic
construction procedures built on top of them.

The extension of an n-dimensional base is (n+2)-dimensional with basis
ordered (e_1 .. e_n, d, e), matching the worked examples this package
verifies: d sits at index n, e at index n+1 (0-based).  The bracket is

    [x, y] = [x, y]_base + theta(x, y) e      x, y in the base
    [d, x] = phi(x) + lambda(x) e
    [d, e] = v + t e

Every condition is a matrix equation.  Over the adapted basis h_1 .. h_m
of ker(abar) that the base structure's kernel reduction holds, with H the
matrix of rows h_a, a two-form F restricted there is H F H^T and a
one-form c is H c; nothing is evaluated one basis pair at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from . import scalars as sc
from .cosymplectic import CosymplecticStructure, SymplecticPair, to_symplectic
from .errors import ConditionsFail, DimensionMismatch, NotCosymplectic
from .exterior import OneForm, TwoForm, d1, form_twist
from .lie_core import LieAlgebra, LinearMap, ad, check_jacobi, is_derivation, partial_phi
from .scalars import Scalar, Vector


@dataclass(frozen=True)
class ExtensionData:
    phi: LinearMap
    lam: OneForm
    v: Vector
    t: Scalar
    theta: TwoForm

    def __post_init__(self):
        n = self.phi.source_dim
        if (
            self.phi.target_dim != n
            or self.lam.dim != n
            or len(self.v) != n
            or self.theta.dim != n
        ):
            raise DimensionMismatch("extension data dimensions disagree")
        object.__setattr__(self, "v", sc.vec(self.v))
        object.__setattr__(self, "t", sc.as_scalar(self.t))

    @property
    def dim(self) -> int:
        return self.phi.source_dim

    @staticmethod
    def zero(n: int) -> "ExtensionData":
        return ExtensionData(
            LinearMap.zero(n), OneForm.zero(n), sc.zero_vec(n), sc.ZERO, TwoForm.zero(n)
        )


def _d_lambda_failures(Gbar: LieAlgebra, E: ExtensionData, theta: TwoForm, lhs: str) -> list:
    """The failure "{lhs} != d(lambda)" at each pair i < j where the matrix
    t Theta - T - d(lambda) is nonzero, Theta and T the matrices of theta and
    theta_phi, for the t, phi and lambda of E."""
    forms = (theta, form_twist(theta, E.phi), d1(Gbar, E.lam))
    M = sc.mat_comb((E.t, -1, -1), [f.matrix() for f in forms])
    return [
        f"{lhs} != d(lambda) at (e{i + 1}, e{j + 1})"
        for i, j in combinations(range(Gbar.dim), 2)
        if M[i][j]
    ]


def _abar_phi(abar: OneForm, phi: LinearMap) -> Vector:
    """The coefficients of abar o phi: P^T abar, P the matrix of phi."""
    return sc.mat_vec(list(zip(*phi.matrix)), abar.coeffs)


def _on_kernel(S: CosymplecticStructure, form: TwoForm) -> list:
    """(a, b, value), 1-based a < b, for each nonzero entry above the
    diagonal of H F H^T: form restricted to the adapted basis of ker(alpha)."""
    H = S.reduction.basis[:-1]
    M = sc.mat_mul(H, sc.mat_mul(form.matrix(), list(zip(*H))))
    return [(a + 1, b + 1, M[a][b]) for a, b in combinations(range(len(H)), 2) if M[a][b]]


def _noncentral(Gbar: LieAlgebra, v: Vector) -> list:
    """The 1-based j with [v, e_j] != 0."""
    ad_v = ad(Gbar, v)
    return [j + 1 for j in range(Gbar.dim) if any(ad_v.column(j))]


def _same_dim(Gbar: LieAlgebra, E: ExtensionData):
    if E.dim != Gbar.dim:
        raise DimensionMismatch(f"extension data of dim {E.dim} on a base of dim {Gbar.dim}")


def prop_conditions(Gbar: LieAlgebra, E: ExtensionData) -> list:
    """Failures of the three double-extension compatibility conditions.

    1. phi([x,y]) - [phi x, y] - [x, phi y] = theta(x, y) v
    2. t theta - theta_phi = d(lambda)
    3. v central and in ker(theta)
    Works symbolically; an empty list means the assembled bracket is Lie.
    """
    _same_dim(Gbar, E)
    failures = []
    theta = E.theta.matrix()
    for (i, j), val in partial_phi(Gbar, E.phi).items():
        if val != sc.vec_scale(theta[i][j], E.v):
            failures.append(f"partial(phi) != theta v at (e{i + 1}, e{j + 1})")
    failures += _d_lambda_failures(Gbar, E, E.theta, "t theta - theta_phi")
    noncentral = _noncentral(Gbar, E.v)
    if noncentral:
        failures.append(f"v not central against e{noncentral[0]}")
    outside = [j + 1 for j, c in enumerate(E.theta.contract(E.v).coeffs) if c]
    if outside:
        failures.append(f"v not in ker(theta) against e{outside[0]}")
    return failures


def assemble_extension(Gbar: LieAlgebra, E: ExtensionData) -> LieAlgebra:
    """Build the (n+2)-dimensional bracket without any condition checks;
    ``LieAlgebra`` drops the zero bracket vectors."""
    n = Gbar.dim
    d_idx, e_idx = n, n + 1
    zero = sc.zero_vec(n)
    brackets = {
        ij: Gbar.brackets.get(ij, zero) + (sc.ZERO, E.theta.coeffs.get(ij, sc.ZERO))
        for ij in sorted(Gbar.brackets.keys() | E.theta.coeffs.keys())
    }
    for i in range(n):
        img = tuple(E.phi.column(i)) + (sc.ZERO, E.lam.coeffs[i])
        # stored as [e_i, d] = -[d, e_i]
        brackets[(i, d_idx)] = tuple(-x for x in img)
    brackets[(d_idx, e_idx)] = tuple(E.v) + (sc.ZERO, E.t)
    return LieAlgebra(n + 2, brackets)


def double_extend(Gbar: LieAlgebra, E: ExtensionData) -> LieAlgebra:
    """Checked double extension.

    Verifies the compatibility conditions and, independently, the Jacobi
    identity of the assembled bracket; the two verdicts must agree.
    """
    failures = prop_conditions(Gbar, E)
    L = assemble_extension(Gbar, E)
    defects = check_jacobi(L)
    if failures:
        raise ConditionsFail(failures + [f"jacobi defects: {len(defects)} triple(s)"])
    if defects:
        raise AssertionError(
            "conditions hold but Jacobi fails; construction is inconsistent"
        )
    return L


def ist_check(P: SymplecticPair, D: LinearMap) -> bool:
    """omega(Dx, y) = -omega(x, Dy) on all basis pairs."""
    return form_twist(P.omega, D).is_zero()


@dataclass
class IstComponentReport:
    cond_i: list
    cond_ii: list
    cond_iii: list
    cond_iv: Optional[Scalar]
    direct: bool
    ok: bool
    agree: bool

    def failed(self) -> list:
        conds = (self.cond_i, self.cond_ii, self.cond_iii, self.cond_iv)
        return [name for name, c in zip(("i", "ii", "iii", "iv"), conds) if c]


def ist_component_check(
    Gbar: LieAlgebra, abar: OneForm, obar: TwoForm, E: ExtensionData
) -> IstComponentReport:
    """Componentwise test that D = (phi, lambda, v, t) is an i.s.t. of the
    symplectization (Gbar + <e>, obar + abar ^ e^*).

    The four components: (i) phi restricted to ker(abar) is an i.s.t. of
    obar there; (ii) lambda(x) = obar(x, phi(xi)); (iii) obar(v, x) =
    abar(phi(x)); (iv) t = -abar(phi(xi)); all for x in ker(abar), xi the
    Reeb vector.  Also runs the direct i.s.t. test on the assembled map;
    the two verdicts must agree.
    """
    return _ist_components(CosymplecticStructure.make(Gbar, abar, obar), E)


def _ist_components(S: CosymplecticStructure, E: ExtensionData) -> IstComponentReport:
    """``ist_component_check`` on the structure of the base triple.  With H
    the rows h_a of the adapted basis of ker(abar) and P the matrix of phi,
    the components are (i) H T H^T, T the matrix of obar_phi; (ii)
    H (lambda + i_{P xi} obar); (iii) H (i_v obar - P^T abar); (iv) t +
    abar^T P xi.  Data of another dimension fails in form_twist."""
    Gbar, abar, obar = S.algebra, S.alpha, S.omega
    cond_i = _on_kernel(S, form_twist(obar, E.phi))
    H, phi_xi = S.reduction.basis[:-1], sc.mat_vec(E.phi.matrix, S.reeb)
    ii = [l + c for l, c in zip(E.lam.coeffs, obar.contract(phi_xi).coeffs)]
    cond_ii = [(a + 1, val) for a, val in enumerate(sc.mat_vec(H, ii)) if val]
    iii = sc.vec_sub(obar.contract(E.v).coeffs, _abar_phi(abar, E.phi))
    cond_iii = [(a + 1, val) for a, val in enumerate(sc.mat_vec(H, iii)) if val]
    cond_iv = E.t + sc.mat_vec([abar.coeffs], phi_xi)[0] or None

    pair = to_symplectic(Gbar, abar, obar)
    n = Gbar.dim
    cols = [tuple(E.phi.column(i)) + (E.lam.coeffs[i],) for i in range(n)]
    cols.append(tuple(E.v) + (E.t,))
    D = LinearMap.from_columns(cols)
    direct = ist_check(pair, D)
    ok = not (cond_i or cond_ii or cond_iii) and cond_iv is None
    return IstComponentReport(cond_i, cond_ii, cond_iii, cond_iv, direct, ok, ok == direct)


@dataclass
class ConstructionResult:
    structure: CosymplecticStructure

    @property
    def algebra(self) -> LieAlgebra:
        return self.structure.algebra


def _construct(
    Gbar: LieAlgebra, E: ExtensionData, alpha: OneForm, omega: TwoForm, reeb: Vector, moved: str
) -> ConstructionResult:
    """The double extension of Gbar by E with the structure (alpha, omega),
    whose Reeb vector must be reeb (AssertionError moved otherwise)."""
    S = CosymplecticStructure.make(double_extend(Gbar, E), alpha, omega)
    if S.reeb != reeb:
        raise AssertionError(moved)
    return ConstructionResult(S)


def _construct_on_base_reeb(
    Gbar: LieAlgebra, abar: OneForm, obar: TwoForm, fields: tuple, failures: list, alpha_de: tuple
) -> ConstructionResult:
    """The end of constructions B and C: the failures, with the base's
    own, raised, or else the extension by ``ExtensionData(*fields)``
    (built only once the conditions hold) carrying (obar + d^* ^ e^*, abar
    extended by (alpha(d), alpha(e)) = alpha_de), whose Reeb vector stays
    the one of the base."""
    try:
        S_base = CosymplecticStructure.make(Gbar, abar, obar)
    except NotCosymplectic:
        failures.append("base triple is not cosymplectic")
    if failures:
        raise ConditionsFail(failures)
    n = Gbar.dim
    alpha = OneForm(n + 2, tuple(abar.coeffs) + alpha_de)
    omega = TwoForm(n + 2, {**obar.coeffs, (n, n + 1): sc.ONE})
    reeb = tuple(S_base.reeb) + (sc.ZERO, sc.ZERO)
    E = ExtensionData(*fields)
    return _construct(Gbar, E, alpha, omega, reeb, "Reeb vector of the extension moved")


def _closure_failures(S: CosymplecticStructure, E: ExtensionData) -> list:
    """construct_A's closure conditions over the adapted basis h_a of
    ker(abar): obar([h_a, h_b], phi xi) = d(i_{phi xi} obar)(h_a, h_b), the
    entries of H dB H^T; and obar(z, h_a) = (H i_z obar)_a for z = [phi xi,
    xi], column xi of ad_{phi xi}, of which the first nonzero one is named."""
    Gbar, obar, xi = S.algebra, S.omega, S.reeb
    phi_xi = sc.mat_vec(E.phi.matrix, xi)
    failures = [
        f"obar([h{a}, h{b}], phi(xi)) != 0"
        for a, b, _ in _on_kernel(S, d1(Gbar, obar.contract(phi_xi)))
    ]
    z = sc.mat_vec(ad(Gbar, phi_xi).matrix, xi)
    pairings = sc.mat_vec(S.reduction.basis[:-1], obar.contract(z).coeffs)
    return failures + [f"obar([phi(xi), xi], h{a + 1}) != 0" for a, c in enumerate(pairings) if c][:1]


def construct_A(
    Gbar: LieAlgebra, abar: OneForm, obar: TwoForm, E: ExtensionData
) -> ConstructionResult:
    """Double extension with theta = 0 carrying (obar + abar ^ e^*, d^*).

    Hypotheses checked: the i.s.t. component conditions, phi a derivation,
    v central, and the two closure conditions obar([x,y], phi(xi)) = 0 and
    obar([phi(xi), xi], x) = 0 over ker(abar).  The Reeb vector of the
    result is d.  AssertionError if the component conditions and the direct
    i.s.t. test disagree.
    """
    n = Gbar.dim
    failures = []
    if not E.theta.is_zero():
        failures.append("theta must be zero for this construction")
    S = CosymplecticStructure.make(Gbar, abar, obar)
    ist_rep = _ist_components(S, E)
    if not ist_rep.agree:
        raise AssertionError("i.s.t. components and the direct test disagree")
    if not ist_rep.ok:
        failures.append(f"extension data is not an i.s.t.: components {ist_rep.failed()}")
    if is_derivation(Gbar, E.phi):
        failures.append("phi is not a derivation of the base")
    if _noncentral(Gbar, E.v):
        failures.append("v is not central in the base")
    failures += _closure_failures(S, E)
    if failures:
        raise ConditionsFail(failures)
    alpha = OneForm.dual(n + 2, n + 1)  # d^*
    e_star = {(i, n + 1): c for i, c in enumerate(abar.coeffs)}
    omega = TwoForm(n + 2, {**obar.coeffs, **e_star})  # obar + abar ^ e^*
    d = sc.basis_vec(n + 2, n)
    return _construct(Gbar, E, alpha, omega, d, "Reeb vector of the extension is not d")


def construct_B(
    Gbar: LieAlgebra,
    abar: OneForm,
    obar: TwoForm,
    E: ExtensionData,
    alpha_d: Scalar = sc.ZERO,
) -> ConstructionResult:
    """Double extension by theta = obar_phi with v = 0, carrying
    (obar + d^* ^ e^*, abar extended by alpha(d) = alpha_d, alpha(e) = 0).

    Conditions checked: v = 0, theta = obar_phi, phi a derivation,
    abar o phi = 0, and t obar_phi - obar_{phi,phi} = d(lambda).  The Reeb
    vector stays the one of the base.
    """
    _same_dim(Gbar, E)
    failures = []
    obar_phi = form_twist(obar, E.phi)
    if any(E.v):
        failures.append("v must be zero for this construction")
    if E.theta != obar_phi:
        failures.append("theta must equal obar_phi")
    if is_derivation(Gbar, E.phi):
        failures.append("phi is not a derivation of the base")
    if any(_abar_phi(abar, E.phi)):
        failures.append("abar o phi != 0")
    failures += _d_lambda_failures(Gbar, E, obar_phi, "t obar_phi - obar_phiphi")
    fields = (E.phi, E.lam, E.v, E.t, obar_phi)
    return _construct_on_base_reeb(Gbar, abar, obar, fields, failures, (alpha_d, 0))


def construct_C(
    Gbar: LieAlgebra,
    abar: OneForm,
    obar: TwoForm,
    phi: LinearMap,
    v: Vector,
    alpha_d: Scalar = sc.ZERO,
) -> ConstructionResult:
    """Double extension by theta = 0 with forced lambda = abar o phi and
    t = abar(v), carrying (obar + d^* ^ e^*, abar extended by
    alpha(d) = alpha_d and alpha(e) = -1).

    Conditions checked: obar_phi = 0, abar(phi([x, y])) = 0, phi a
    derivation, and v central with obar(v, .) = 0.  The Reeb vector stays
    the one of the base.
    """
    n = Gbar.dim
    failures = []
    lam = OneForm(n, _abar_phi(abar, phi))
    t = sc.mat_vec([abar.coeffs], v)[0]
    obar_phi = form_twist(obar, phi)
    if not obar_phi.is_zero():
        failures.append("obar_phi != 0")
    if is_derivation(Gbar, phi):
        failures.append("phi is not a derivation of the base")
    # abar(phi([x, y])) = lambda([x, y]) = -d(lambda)(x, y)
    for i, j in d1(Gbar, lam).coeffs:
        failures.append(f"abar(phi([e{i + 1}, e{j + 1}])) != 0")
    if _noncentral(Gbar, v):
        failures.append("v is not central in the base")
    if not obar.contract(v).is_zero():
        failures.append("v is not in ker(obar)")
    fields = (phi, lam, v, t, TwoForm.zero(n))
    return _construct_on_base_reeb(Gbar, abar, obar, fields, failures, (alpha_d, -1))
