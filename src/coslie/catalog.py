"""The classified low-dimensional cosymplectic Lie algebras as data.

Families and their nondegeneracy conditions are stored exactly as the
source tables print them, including entries whose printed data fails
recomputation; ``verify_all`` recomputes everything independently and the
report marks each such discrepancy as a documented deviation rather than
silently correcting it.  Known deviations (confirmed by exact
recomputation here):

* ``A_{5,2}``, ``A_{5,5}``, ``A_{5,6}``: the printed nondegeneracy
  polynomial differs from the computed volume coefficient (sign slip in a
  coupled coefficient, resp. a wrong index); the vanishing loci differ.
* ``A_{5,7}^{a,-a,-1}``: the printed omega family carries an ``e^{24}``
  monomial that is not closed for generic ``a``; the cocycle space has
  dimension 6, not 7.
* ``A_{5,7}^{1,-1,-1}``: the printed family omits ``e^{25}`` and so spans
  a proper subspace of the cocycle space (harmless for the family claim).
* ``aff(2,R)``-extension: the printed brackets ``[e7,e6] = lam e2``,
  ``[e7,e4] = lam e1`` satisfy Jacobi but make omega non-closed for
  lam != 0 (defect on (e4, e5, e7)); the inner element must pair to zero
  with the whole derived algebra, which forces ``2 e2 - e4`` instead of
  ``e2``.  The corrected extension is stored alongside and verified.
* The product table attributed to ``g_{3.1}`` arises from the family
  member ``(lam e^3, e^{12})``, not from the printed normal form
  ``(lam e^2, e^{13})``; both computed tables are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import scalars as sc
from .algfile import format_algebra
from .errors import DegenerateParams, MissingParam, UnknownEntry
from .exterior import OneForm, TwoForm, volume_coeff
from .lie_core import LieAlgebra, LinearMap

P = sc.Poly.var
F = Fraction


def symbols(values) -> list:
    """The sorted names of the symbols in values (scalars or ints)."""
    names = set()
    for c in values:
        names |= sc.scalar_variables(sc.as_scalar(c))
    return sorted(names)


def _alpha(dim, comps):
    return OneForm.from_dict(dim, comps)


def _omega(dim, comps):
    return TwoForm.from_dict(dim, comps)


@dataclass(frozen=True)
class NormalForm:
    label: str
    alpha: OneForm
    omega: TwoForm
    param_range: str                  # verbatim range note, e.g. "lam > 0"
    expected_reeb: tuple              # symbolic vector
    witness_member: Optional[tuple]   # (alpha2, omega2) family member
    witness_map: Optional[LinearMap]  # M with M*(member forms) = normal forms
    witness_lam: Optional[Fraction]   # lam value of the normal side


@dataclass(frozen=True)
class LsaExpectation:
    alpha: OneForm            # structure carrying the printed table
    omega: TwoForm
    table: dict               # 1-based {(i, j): {k: Scalar}}, entries in lam
    note: str = ""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    dim: int
    kind: str                         # family | normal | heisenberg | aff
    brackets: dict = field(default_factory=dict)   # 1-based, possibly symbolic
    alpha: Optional[OneForm] = None
    omega: Optional[TwoForm] = None
    nondeg: Optional[sc.Poly] = None  # printed condition, verbatim
    constraints: str = ""
    struct_params: dict = field(default_factory=dict)   # name -> sample value
    sample: dict = field(default_factory=dict)          # full validated sample
    known_deviations: frozenset = frozenset()
    normal_forms: tuple = ()
    lsa: Optional[LsaExpectation] = None
    notes: str = ""
    aliases: tuple = ()

    def algebra(self, assignment: Optional[dict] = None) -> LieAlgebra:
        L = LieAlgebra.from_table(self.dim, self.brackets)
        if assignment:
            L = L.subs(assignment)
        return L

    def param_names(self) -> list:
        if self.kind == "heisenberg":
            return ["n"]
        values = [c for comps in self.brackets.values() for c in comps.values()]
        if self.alpha is not None:
            values += self.alpha.coeffs
        if self.omega is not None:
            values += self.omega.coeffs.values()
        return symbols(values)


# ---------------------------------------------------------------------------
# Dimension 3


def _dim3_entries() -> list:
    entries = []
    lam = P("lam")
    inv_lam = sc.ratfn(sc.Poly.const(1), sc.Poly.var("lam"))
    inv_lam2 = sc.ratfn(sc.Poly.const(1), sc.Poly.var("lam") ** 2)

    g21_br = {(1, 2): {1: 1}}
    entries.append(
        CatalogEntry(
            name="g_{2.1}⊕g_1",
            aliases=("g_{2.1}+g_1",),
            dim=3,
            kind="family",
            brackets=g21_br,
            alpha=_alpha(3, {2: P("a2"), 3: P("a3")}),
            omega=_omega(3, {(1, 2): P("a12"), (2, 3): P("a23")}),
            nondeg=P("a3") * P("a12"),
            constraints="a3*a12 != 0",
            sample={"a2": F(0), "a3": F(1), "a12": F(1), "a23": F(0)},
            normal_forms=(
                NormalForm(
                    "normal-1",
                    _alpha(3, {3: 1}),
                    _omega(3, {(1, 2): 1}),
                    "no parameters",
                    (sc.ZERO, sc.ZERO, sc.ONE),
                    (_alpha(3, {2: 1, 3: 2}), _omega(3, {(1, 2): 3})),
                    LinearMap.from_columns(
                        [(F(1, 3), 0, 0), (0, 1, F(-1, 2)), (0, 0, F(1, 2))]
                    ),
                    None,
                ),
                NormalForm(
                    "normal-2",
                    _alpha(3, {3: lam}),
                    _omega(3, {(1, 2): 1, (2, 3): 1}),
                    "lam in R - {0}",
                    (inv_lam, sc.ZERO, inv_lam),
                    (_alpha(3, {2: 1, 3: 2}), _omega(3, {(1, 2): 3, (2, 3): 4})),
                    LinearMap.from_columns(
                        [(F(1, 3), 0, 0), (0, 1, F(-1, 2)), (0, 0, F(1, 4))]
                    ),
                    F(1, 2),
                ),
            ),
            lsa=LsaExpectation(
                _alpha(3, {3: 1}),
                _omega(3, {(1, 2): 1}),
                {(1, 2): {1: 1}, (2, 2): {2: 1}},
            ),
        )
    )

    g31_br = {(2, 3): {1: 1}}
    entries.append(
        CatalogEntry(
            name="g_{3.1}",
            dim=3,
            kind="family",
            brackets=g31_br,
            alpha=_alpha(3, {2: P("a2"), 3: P("a3")}),
            omega=_omega(3, {(1, 2): P("a12"), (1, 3): P("a13"), (2, 3): P("a23")}),
            nondeg=P("a3") * P("a12") - P("a2") * P("a13"),
            constraints="a3*a12 - a2*a13 != 0",
            sample={"a2": F(0), "a3": F(1), "a12": F(1), "a13": F(0), "a23": F(0)},
            normal_forms=(
                NormalForm(
                    "normal-1",
                    _alpha(3, {2: lam}),
                    _omega(3, {(1, 3): 1}),
                    "lam in R - {0}",
                    (sc.ZERO, inv_lam, sc.ZERO),
                    (_alpha(3, {3: 1}), _omega(3, {(1, 2): 1})),
                    LinearMap.from_columns([(1, 0, 0), (0, 0, -1), (0, 1, 0)]),
                    F(-1),
                ),
            ),
            lsa=LsaExpectation(
                _alpha(3, {3: lam}),
                _omega(3, {(1, 2): 1}),
                {(2, 2): {3: inv_lam2}, (3, 2): {1: -1}},
                note=(
                    "the printed table belongs to the family member "
                    "(lam e^3, e^{12}); the printed normal form "
                    "(lam e^2, e^{13}) yields e2.e3 = e1, "
                    "e3.e3 = -lam^-2 e2 instead"
                ),
            ),
            known_deviations=frozenset({"lsa_printed_normal_form"}),
        )
    )

    g34_br = {(1, 3): {1: 1}, (2, 3): {2: -1}}
    entries.append(
        CatalogEntry(
            name="g_{3.4}^{-1}",
            dim=3,
            kind="family",
            brackets=g34_br,
            alpha=_alpha(3, {3: P("a3")}),
            omega=_omega(3, {(1, 2): P("a12"), (1, 3): P("a13"), (2, 3): P("a23")}),
            nondeg=P("a3") * P("a12"),
            constraints="a3*a12 != 0",
            sample={"a3": F(1), "a12": F(1), "a13": F(0), "a23": F(0)},
            normal_forms=(
                NormalForm(
                    "normal-1",
                    _alpha(3, {3: lam}),
                    _omega(3, {(1, 2): 1}),
                    "lam > 0",
                    (sc.ZERO, sc.ZERO, inv_lam),
                    (_alpha(3, {3: 2}), _omega(3, {(1, 2): 2, (1, 3): 1, (2, 3): 3})),
                    LinearMap.from_columns(
                        [(1, 0, 0), (0, F(1, 2), 0), (F(3, 2), F(-1, 2), 1)]
                    ),
                    F(2),
                ),
            ),
            lsa=LsaExpectation(
                _alpha(3, {3: lam}),
                _omega(3, {(1, 2): 1}),
                {
                    (1, 2): {3: inv_lam2},
                    (2, 1): {3: inv_lam2},
                    (3, 1): {1: -1},
                    (3, 2): {2: 1},
                },
            ),
        )
    )

    g35_br = {(1, 3): {2: -1}, (2, 3): {1: 1}}
    entries.append(
        CatalogEntry(
            name="g_{3.5}^0",
            dim=3,
            kind="family",
            brackets=g35_br,
            alpha=_alpha(3, {3: P("a3")}),
            omega=_omega(3, {(1, 2): P("a12"), (1, 3): P("a13"), (2, 3): P("a23")}),
            nondeg=P("a3") * P("a12"),
            constraints="a3*a12 != 0",
            sample={"a3": F(1), "a12": F(1), "a13": F(0), "a23": F(0)},
            normal_forms=(
                NormalForm(
                    "normal-1",
                    _alpha(3, {3: lam}),
                    _omega(3, {(1, 2): 1}),
                    "lam > 0",
                    (sc.ZERO, sc.ZERO, inv_lam),
                    (_alpha(3, {3: 1}), _omega(3, {(1, 2): 1, (1, 3): 1})),
                    LinearMap.from_columns([(1, 0, 0), (0, 1, 0), (0, -1, 1)]),
                    F(1),
                ),
            ),
            lsa=LsaExpectation(
                _alpha(3, {3: lam}),
                _omega(3, {(1, 2): 1}),
                {
                    (1, 1): {3: inv_lam2},
                    (2, 2): {3: inv_lam2},
                    (3, 1): {2: 1},
                    (3, 2): {1: -1},
                },
            ),
        )
    )
    return entries


# ---------------------------------------------------------------------------
# Dimension 5 (families transcribed verbatim from the classification table)


def _dim5_entries() -> list:
    e: list = []

    e.append(
        CatalogEntry(
            name="A_{5,1}",
            dim=5,
            kind="family",
            brackets={(3, 5): {1: 1}, (4, 5): {2: 1}},
            alpha=_alpha(5, {3: P("a3"), 4: P("a4"), 5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 3): P("a13"),
                    (1, 4): P("a23"),
                    (1, 5): P("a15"),
                    (2, 3): P("a23"),
                    (2, 4): P("a24"),
                    (2, 5): P("a25"),
                    (3, 4): P("a34"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=(
                P("a3") * P("a15") * P("a24")
                - P("a3") * P("a23") * P("a25")
                + P("a4") * P("a13") * P("a25")
                - P("a4") * P("a15") * P("a23")
                - P("a5") * P("a13") * P("a24")
                + P("a5") * P("a23") ** 2
            ),
            constraints="printed cubic != 0 (last term read as a5*a23^2)",
            sample={
                "a3": F(0), "a4": F(0), "a5": F(1),
                "a13": F(0), "a23": F(1), "a15": F(0), "a24": F(0),
                "a25": F(0), "a34": F(0), "a35": F(0), "a45": F(0),
            },
            notes="a23 rides on both e^{14} and e^{23}: it encodes the cocycle constraint",
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,2}",
            dim=5,
            kind="family",
            brackets={(2, 5): {1: 1}, (3, 5): {2: 1}, (4, 5): {3: 1}},
            alpha=_alpha(5, {4: P("a4"), 5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 4): P("a23"),
                    (1, 5): P("a15"),
                    (2, 3): -P("a23"),
                    (2, 5): P("a25"),
                    (3, 4): P("a34"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a23") * (P("a4") * P("a15") + P("a5") * P("a23")),
            constraints="a23*(a4*a15 + a5*a23) != 0 as printed",
            sample={
                "a4": F(1), "a5": F(0), "a23": F(1), "a15": F(1),
                "a25": F(0), "a34": F(0), "a35": F(0), "a45": F(0),
            },
            known_deviations=frozenset({"nondeg"}),
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,5}",
            dim=5,
            kind="family",
            brackets={(2, 5): {1: 1}, (3, 4): {1: 1}, (3, 5): {2: 1}},
            alpha=_alpha(5, {3: P("a3"), 4: P("a4"), 5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 5): P("a24"),
                    (2, 3): P("a23"),
                    (2, 4): P("a24"),
                    (2, 5): P("a25"),
                    (3, 4): P("a34"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a24") * (P("a3") * P("a25") - P("a4") * P("a23")),
            constraints="a24*(a3*a25 - a4*a23) != 0 as printed",
            sample={
                "a3": F(1), "a4": F(0), "a5": F(0),
                "a23": F(0), "a24": F(1), "a25": F(1),
                "a34": F(0), "a35": F(0), "a45": F(0),
            },
            known_deviations=frozenset({"nondeg"}),
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,6}",
            dim=5,
            kind="family",
            brackets={
                (2, 5): {1: 1},
                (3, 5): {2: 1},
                (3, 4): {1: 1},
                (4, 5): {3: 1},
            },
            alpha=_alpha(5, {4: P("a4"), 5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 4): P("a23"),
                    (1, 5): P("a24"),
                    (2, 3): -P("a23"),
                    (2, 4): P("a24"),
                    (2, 5): P("a25"),
                    (3, 4): P("a34"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a23") * (P("a4") * P("a24") + P("a5") * P("a23")),
            constraints="a23*(a4*a24 + a5*a23) != 0 as printed",
            sample={
                "a4": F(1), "a5": F(0), "a23": F(1), "a24": F(1),
                "a25": F(0), "a34": F(0), "a35": F(0), "a45": F(0),
            },
            known_deviations=frozenset({"nondeg"}),
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,7}^{a,-a,-1}",
            dim=5,
            kind="family",
            brackets={
                (1, 5): {1: 1},
                (2, 5): {2: P("a")},
                (3, 5): {3: -P("a")},
                (4, 5): {4: -1},
            },
            alpha=_alpha(5, {5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 4): P("a14"),
                    (1, 5): P("a15"),
                    (2, 3): P("a23"),
                    (2, 4): P("a24"),
                    (2, 5): P("a25"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a5") * P("a14") * P("a23"),
            constraints="a not in {-1, 0, 1}; a5*a14*a23 != 0",
            struct_params={"a": F(2)},
            sample={
                "a": F(2), "a5": F(1), "a14": F(1), "a23": F(1),
                "a15": F(0), "a24": F(0), "a25": F(0), "a35": F(0), "a45": F(0),
            },
            known_deviations=frozenset({"omega_cocycle", "z2_span"}),
            notes="printed e^{24} term is not closed for generic a; sample sets a24 = 0",
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,7}^{1,-1,-1}",
            dim=5,
            kind="family",
            brackets={
                (1, 5): {1: 1},
                (2, 5): {2: 1},
                (3, 5): {3: -1},
                (4, 5): {4: -1},
            },
            alpha=_alpha(5, {5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 3): P("a13"),
                    (1, 4): P("a14"),
                    (1, 5): P("a15"),
                    (2, 3): P("a23"),
                    (2, 4): P("a24"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a5") * (P("a24") * P("a13") - P("a14") * P("a23")),
            constraints="a5*(a24*a13 - a14*a23) != 0",
            sample={
                "a5": F(1), "a13": F(1), "a24": F(1),
                "a14": F(0), "a23": F(0), "a15": F(0), "a35": F(0), "a45": F(0),
            },
            known_deviations=frozenset({"z2_span"}),
            notes="family omits the closed monomial e^{25}; spans a 7-dim subspace of the 8-dim cocycle space",
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,8}^{-1}",
            dim=5,
            kind="family",
            brackets={(2, 5): {1: 1}, (3, 5): {3: 1}, (4, 5): {4: -1}},
            alpha=_alpha(5, {2: P("a2"), 5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 2): P("a12"),
                    (1, 5): P("a15"),
                    (2, 5): P("a25"),
                    (3, 4): P("a34"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a34") * (P("a5") * P("a12") - P("a2") * P("a15")),
            constraints="a34*(a5*a12 - a2*a15) != 0",
            sample={
                "a2": F(0), "a5": F(1), "a12": F(1), "a34": F(1),
                "a15": F(0), "a25": F(0), "a35": F(0), "a45": F(0),
            },
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,13}^{-1,0,q}",
            dim=5,
            kind="family",
            brackets={
                (1, 5): {1: 1},
                (2, 5): {2: -1},
                (3, 5): {4: -P("q")},
                (4, 5): {3: P("q")},
            },
            alpha=_alpha(5, {5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 2): P("a12"),
                    (1, 5): P("a15"),
                    (2, 5): P("a25"),
                    (3, 4): P("a34"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a5") * P("a12") * P("a34"),
            constraints="q != 0; a5*a12*a34 != 0",
            struct_params={"q": F(1)},
            sample={
                "q": F(1), "a5": F(1), "a12": F(1), "a34": F(1),
                "a15": F(0), "a25": F(0), "a35": F(0), "a45": F(0),
            },
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,14}^0",
            dim=5,
            kind="family",
            brackets={(2, 5): {1: 1}, (3, 5): {4: -1}, (4, 5): {3: 1}},
            alpha=_alpha(5, {2: P("a2"), 5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 2): P("a12"),
                    (1, 5): P("a15"),
                    (2, 5): P("a25"),
                    (3, 4): P("a34"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a34") * (P("a5") * P("a12") - P("a2") * P("a15")),
            constraints="a34*(a5*a12 - a2*a15) != 0",
            sample={
                "a2": F(0), "a5": F(1), "a12": F(1), "a34": F(1),
                "a15": F(0), "a25": F(0), "a35": F(0), "a45": F(0),
            },
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,15}^{-1}",
            dim=5,
            kind="family",
            brackets={
                (1, 5): {1: 1},
                (2, 5): {1: 1, 2: 1},
                (3, 5): {3: -1},
                (4, 5): {3: 1, 4: -1},
            },
            alpha=_alpha(5, {5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 4): -P("a23"),
                    (1, 5): P("a15"),
                    (2, 3): P("a23"),
                    (2, 4): P("a24"),
                    (2, 5): P("a25"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a5") * P("a23"),
            constraints="a5*a23 != 0",
            sample={
                "a5": F(1), "a23": F(1),
                "a15": F(0), "a24": F(0), "a25": F(0), "a35": F(0), "a45": F(0),
            },
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,17}^{1,p,-p}",
            dim=5,
            kind="family",
            brackets={
                (1, 5): {1: P("p"), 2: -1},
                (2, 5): {1: 1, 2: P("p")},
                (3, 5): {3: -P("p"), 4: -1},
                (4, 5): {3: 1, 4: -P("p")},
            },
            alpha=_alpha(5, {5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 3): P("a24"),
                    (1, 4): -P("a23"),
                    (1, 5): P("a15"),
                    (2, 3): P("a23"),
                    (2, 4): P("a24"),
                    (2, 5): P("a25"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a5") * (P("a23") ** 2 + P("a24") ** 2),
            constraints="p != 0; a5*(a23^2 + a24^2) != 0",
            struct_params={"p": F(1)},
            sample={
                "p": F(1), "a5": F(1), "a23": F(1), "a24": F(0),
                "a15": F(0), "a25": F(0), "a35": F(0), "a45": F(0),
            },
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,17}^{1,0,0}",
            dim=5,
            kind="family",
            brackets={
                (1, 5): {2: -1},
                (2, 5): {1: 1},
                (3, 5): {4: -1},
                (4, 5): {3: 1},
            },
            alpha=_alpha(5, {5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 2): P("a12"),
                    (1, 3): P("a24"),
                    (1, 4): -P("a23"),
                    (1, 5): P("a15"),
                    (2, 3): P("a23"),
                    (2, 4): P("a24"),
                    (2, 5): P("a25"),
                    (3, 4): P("a34"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a5") * (P("a12") * P("a34") - P("a23") ** 2 - P("a24") ** 2),
            constraints="a5*(a12*a34 - a23^2 - a24^2) != 0",
            sample={
                "a5": F(1), "a12": F(0), "a34": F(0), "a23": F(1), "a24": F(0),
                "a15": F(0), "a25": F(0), "a35": F(0), "a45": F(0),
            },
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,17}^{-1,p,-p}",
            dim=5,
            kind="family",
            brackets={
                (1, 5): {1: P("p"), 2: -1},
                (2, 5): {1: 1, 2: P("p")},
                (3, 5): {3: -P("p"), 4: 1},
                (4, 5): {3: -1, 4: -P("p")},
            },
            alpha=_alpha(5, {5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 3): -P("a24"),
                    (1, 4): P("a23"),
                    (1, 5): P("a15"),
                    (2, 3): P("a23"),
                    (2, 4): P("a24"),
                    (2, 5): P("a25"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a5") * (P("a23") ** 2 + P("a24") ** 2),
            constraints="p != 0; a5*(a23^2 + a24^2) != 0",
            struct_params={"p": F(1)},
            sample={
                "p": F(1), "a5": F(1), "a23": F(1), "a24": F(0),
                "a15": F(0), "a25": F(0), "a35": F(0), "a45": F(0),
            },
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,17}^{-1,0,0}",
            dim=5,
            kind="family",
            brackets={
                (1, 5): {2: -1},
                (2, 5): {1: 1},
                (3, 5): {4: 1},
                (4, 5): {3: -1},
            },
            alpha=_alpha(5, {5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 2): P("a12"),
                    (1, 3): -P("a24"),
                    (1, 4): P("a23"),
                    (1, 5): P("a15"),
                    (2, 3): P("a23"),
                    (2, 4): P("a24"),
                    (2, 5): P("a25"),
                    (3, 4): P("a34"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a5") * (P("a12") * P("a34") + P("a23") ** 2 + P("a24") ** 2),
            constraints="a5*(a12*a34 + a23^2 + a24^2) != 0",
            sample={
                "a5": F(1), "a12": F(0), "a34": F(0), "a23": F(1), "a24": F(0),
                "a15": F(0), "a25": F(0), "a35": F(0), "a45": F(0),
            },
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,18}^0",
            dim=5,
            kind="family",
            brackets={
                (1, 5): {2: -1},
                (2, 5): {1: 1},
                (3, 5): {1: 1, 4: -1},
                (4, 5): {2: 1, 3: 1},
            },
            alpha=_alpha(5, {5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 3): P("a24"),
                    (1, 5): P("a15"),
                    (2, 4): P("a24"),
                    (2, 5): P("a25"),
                    (3, 4): P("a34"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a5") * P("a24"),
            constraints="a5*a24 != 0",
            sample={
                "a5": F(1), "a24": F(1),
                "a15": F(0), "a25": F(0), "a34": F(0), "a35": F(0), "a45": F(0),
            },
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,19}^{1,-1}",
            dim=5,
            kind="family",
            brackets={
                (1, 5): {1: 1},
                (2, 3): {1: 1},
                (2, 5): {2: 1},
                (4, 5): {4: -1},
            },
            alpha=_alpha(5, {3: P("a3"), 5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 5): P("a23"),
                    (2, 3): P("a23"),
                    (2, 4): P("a24"),
                    (2, 5): P("a25"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a3") * P("a23") * P("a24"),
            constraints="a3*a23*a24 != 0",
            sample={
                "a3": F(1), "a5": F(0), "a23": F(1), "a24": F(1),
                "a25": F(0), "a35": F(0), "a45": F(0),
            },
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,19}^{1/2,-1}",
            dim=5,
            kind="family",
            brackets={
                (1, 5): {1: F(1, 2)},
                (2, 3): {1: 1},
                (2, 5): {2: 1},
                (3, 5): {3: F(-1, 2)},
                (4, 5): {4: -1},
            },
            alpha=_alpha(5, {5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 3): P("a13"),
                    (1, 5): P("a15"),
                    (2, 3): 2 * P("a15"),
                    (2, 4): P("a24"),
                    (2, 5): P("a25"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a5") * P("a13") * P("a24"),
            constraints="a5*a13*a24 != 0",
            sample={
                "a5": F(1), "a13": F(1), "a24": F(1),
                "a15": F(0), "a25": F(0), "a35": F(0), "a45": F(0),
            },
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,19}^{-1,2}",
            dim=5,
            kind="family",
            brackets={
                (1, 5): {1: -1},
                (2, 3): {1: 1},
                (2, 5): {2: 1},
                (3, 5): {3: -2},
                (4, 5): {4: 2},
            },
            alpha=_alpha(5, {5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 2): P("a12"),
                    (1, 5): -P("a23"),
                    (2, 3): P("a23"),
                    (2, 5): P("a25"),
                    (3, 4): P("a34"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a5") * P("a12") * P("a34"),
            constraints="a5*a12*a34 != 0",
            sample={
                "a5": F(1), "a12": F(1), "a34": F(1),
                "a23": F(0), "a25": F(0), "a35": F(0), "a45": F(0),
            },
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,30}^1",
            dim=5,
            kind="family",
            brackets={
                (2, 4): {1: 1},
                (3, 4): {2: 1},
                (1, 5): {1: 2},
                (2, 5): {2: 1},
                (4, 5): {4: 1},
            },
            alpha=_alpha(5, {3: P("a3"), 5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 5): 2 * P("a24"),
                    (2, 4): P("a24"),
                    (2, 5): P("a34"),
                    (3, 4): P("a34"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a3") * P("a24"),
            constraints="a3*a24 != 0",
            sample={
                "a3": F(1), "a5": F(0), "a24": F(1), "a34": F(0),
                "a35": F(0), "a45": F(0),
            },
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,33}^{0,-1}",
            dim=5,
            kind="family",
            brackets={(1, 4): {1: 1}, (2, 5): {2: 1}, (3, 4): {3: -1}},
            alpha=_alpha(5, {4: P("a4"), 5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 3): P("a13"),
                    (1, 4): P("a14"),
                    (2, 5): P("a25"),
                    (3, 4): P("a34"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a4") * P("a13") * P("a25"),
            constraints="a4*a13*a25 != 0",
            sample={
                "a4": F(1), "a5": F(0), "a13": F(1), "a25": F(1),
                "a14": F(0), "a34": F(0), "a45": F(0),
            },
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,33}^{-1,0}",
            dim=5,
            kind="family",
            brackets={(1, 4): {1: 1}, (2, 5): {2: 1}, (3, 5): {3: -1}},
            alpha=_alpha(5, {4: P("a4"), 5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 4): P("a14"),
                    (2, 3): P("a23"),
                    (2, 5): P("a25"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a5") * P("a14") * P("a23"),
            constraints="a5*a14*a23 != 0",
            sample={
                "a4": F(0), "a5": F(1), "a14": F(1), "a23": F(1),
                "a25": F(0), "a35": F(0), "a45": F(0),
            },
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,36}",
            dim=5,
            kind="family",
            brackets={
                (1, 4): {1: 1},
                (2, 3): {1: 1},
                (2, 4): {2: 1},
                (2, 5): {2: -1},
                (3, 5): {3: 1},
            },
            alpha=_alpha(5, {4: P("a4"), 5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 4): P("a23"),
                    (2, 3): P("a23"),
                    (2, 4): -P("a25"),
                    (2, 5): P("a25"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a5") * P("a23"),
            constraints="a5*a23 != 0",
            sample={
                "a4": F(0), "a5": F(1), "a23": F(1),
                "a25": F(0), "a35": F(0), "a45": F(0),
            },
        )
    )

    e.append(
        CatalogEntry(
            name="A_{5,37}",
            dim=5,
            kind="family",
            brackets={
                (1, 4): {1: 2},
                (2, 3): {1: 1},
                (2, 4): {2: 1},
                (3, 4): {3: 1},
                (2, 5): {3: -1},
                (3, 5): {2: 1},
            },
            alpha=_alpha(5, {4: P("a4"), 5: P("a5")}),
            omega=_omega(
                5,
                {
                    (1, 4): 2 * P("a23"),
                    (2, 3): P("a23"),
                    (2, 4): P("a35"),
                    (2, 5): -P("a34"),
                    (3, 4): P("a34"),
                    (3, 5): P("a35"),
                    (4, 5): P("a45"),
                },
            ),
            nondeg=P("a5") * P("a23"),
            constraints="a5*a23 != 0",
            sample={
                "a4": F(0), "a5": F(1), "a23": F(1),
                "a34": F(0), "a35": F(0), "a45": F(0),
            },
        )
    )

    return e


# ---------------------------------------------------------------------------
# Heisenberg and the non-solvable 7-dimensional algebra


def heisenberg(n: int) -> LieAlgebra:
    """H_{2n+1}: basis e_1..e_n, f_1..f_n, z with [e_i, f_i] = z."""
    dim = 2 * n + 1
    return LieAlgebra.from_table(dim, {(i, n + i): {dim: 1} for i in range(1, n + 1)})


_AFF_BASE = {
    (1, 3): {1: -1},
    (2, 4): {1: -1},
    (3, 4): {4: 1},
    (4, 5): {3: 1, 6: -1},
    (5, 6): {5: -1},
    (1, 5): {2: -1},
    (2, 6): {2: -1},
    (3, 5): {5: -1},
    (4, 6): {4: 1},
}


def _aff_brackets_printed() -> dict:
    # [e7, e4] = lam e1, [e7, e6] = lam e2, stored as (4,7), (6,7) negated
    br = {ij: dict(c) for ij, c in _AFF_BASE.items()}
    br[(4, 7)] = {1: -P("lam")}
    br[(6, 7)] = {2: -P("lam")}
    return br


def _aff_brackets_corrected() -> dict:
    # inner element lam*(2 e2 - e4): [e7, x] = [lam(2e2 - e4), x]
    br = {ij: dict(c) for ij, c in _AFF_BASE.items()}
    br[(2, 7)] = {1: P("lam")}
    br[(3, 7)] = {4: -P("lam")}
    br[(4, 7)] = {1: 2 * P("lam")}
    br[(5, 7)] = {3: P("lam"), 6: -P("lam")}
    br[(6, 7)] = {2: 2 * P("lam"), 4: P("lam")}
    return br


AFF_OMEGA = _omega(7, {(1, 5): 1, (2, 6): 1, (3, 4): 1, (4, 6): 1})
AFF_ALPHA = _alpha(7, {7: 1})


def _special_entries() -> list:
    return [
        CatalogEntry(
            name="Heisenberg",
            dim=0,
            kind="heisenberg",
            constraints="parameter n >= 1; supports a cosymplectic structure iff n = 1",
        ),
        CatalogEntry(
            name="aff(2,R)⋉<e7>",
            aliases=("aff(2,R)x<e7>", "aff2R-e7"),
            dim=7,
            kind="aff",
            brackets=_aff_brackets_printed(),
            alpha=AFF_ALPHA,
            omega=AFF_OMEGA,
            constraints="lam in R; verified at lam in {0, 1}",
            struct_params={"lam": F(1)},
            known_deviations=frozenset({"validate_lam1"}),
            notes=(
                "printed extension brackets give a Lie algebra but omega is "
                "not closed for lam != 0; the corrected inner element is "
                "lam*(2 e2 - e4)"
            ),
        ),
    ]


def aff_corrected_algebra(lam_value: Fraction) -> LieAlgebra:
    L = LieAlgebra.from_table(7, _aff_brackets_corrected())
    return L.subs({"lam": lam_value})


# ---------------------------------------------------------------------------
# Registry


def _registry() -> tuple:
    """(entries by name and alias, listing order); the normal forms of an
    entry are child entries, listed after the 3-dimensional entries."""
    dim3, rest = _dim3_entries(), _dim5_entries() + _special_entries()
    reg, children = {}, []
    for entry in dim3 + rest:
        reg[entry.name] = entry
        for alias in entry.aliases:
            reg[alias] = entry
        for nf in entry.normal_forms:
            nf_values = [*nf.alpha.coeffs, *nf.omega.coeffs.values()]
            child = CatalogEntry(
                name=f"{entry.name}-{nf.label}",
                aliases=tuple(f"{a}-{nf.label}" for a in entry.aliases),
                dim=entry.dim,
                kind="normal",
                brackets=entry.brackets,
                alpha=nf.alpha,
                omega=nf.omega,
                nondeg=_normal_nondeg(entry, nf),
                constraints=nf.param_range,
                sample={"lam": F(1)} if "lam" in symbols(nf_values) else {},
                notes=f"normal form of {entry.name}",
            )
            reg[child.name] = child
            children.append(child.name)
            for a in child.aliases:
                reg[a] = child
    return reg, [e.name for e in dim3] + children + [e.name for e in rest]


def _normal_nondeg(entry: CatalogEntry, nf: NormalForm):
    L = LieAlgebra.from_table(entry.dim, entry.brackets)
    vol = volume_coeff(L, nf.alpha, nf.omega)
    return vol if isinstance(vol, sc.Poly) else sc.Poly.const(vol)


_REGISTRY, _ORDER = _registry()


def list_entries() -> list:
    return list(_ORDER)


def get_entry(name: str) -> CatalogEntry:
    if name not in _REGISTRY:
        raise UnknownEntry(f"no catalog entry named '{name}'")
    return _REGISTRY[name]


def instantiate(name: str, params: Optional[dict] = None):
    """(LieAlgebra, alpha, omega) at the given parameter values.

    Parameters must cover every symbol of the entry; the stored
    nondegeneracy condition must not vanish at them.
    """
    params = {k: Fraction(v) for k, v in (params or {}).items()}
    entry = get_entry(name)
    if entry.kind == "heisenberg":
        if "n" not in params:
            raise MissingParam("Heisenberg needs the parameter n")
        n = params["n"]
        if n.denominator != 1 or n < 1:
            raise DegenerateParams("n must be a positive integer")
        return heisenberg(int(n)), None, None
    needed = entry.param_names()
    missing = [p for p in needed if p not in params]
    if missing:
        raise MissingParam(f"missing parameters for {name}: {', '.join(missing)}")
    L = entry.algebra(params)
    alpha = entry.alpha.subs(params) if entry.alpha is not None else None
    omega = entry.omega.subs(params) if entry.omega is not None else None
    if entry.nondeg is not None:
        relevant = {v: params[v] for v in entry.nondeg.variables if v in params}
        if sc.poly_eval(entry.nondeg, params) == 0:
            raise DegenerateParams(
                f"nondegeneracy condition of {name} vanishes at {sorted(relevant.items())}"
            )
    return L, alpha, omega


def export_entry(name: str, params: Optional[dict] = None) -> str:
    """Entry as .alg text; parametric entries export their symbols."""
    entry = get_entry(name)
    if entry.kind == "heisenberg" or params:
        L, alpha, omega = instantiate(name, params)
        return format_algebra(L, alpha, omega, params)
    return format_algebra(entry.algebra(), entry.alpha, entry.omega, {})
