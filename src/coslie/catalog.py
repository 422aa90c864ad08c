"""The classified low-dimensional cosymplectic Lie algebras as data.

The families, their normal forms, product tables and nondegeneracy
conditions are the package data file ``catalog.alg``, stored exactly as
the source tables print them, including entries whose printed data fails
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
from functools import cache
from importlib import resources
from typing import Optional

from . import scalars as sc
from .algfile import format_algebra, parse_catalog
from .errors import DegenerateParams, MissingParam, UnknownEntry
from .exterior import OneForm, TwoForm, volume_coeff
from .lie_core import LieAlgebra, LinearMap


def symbols(values) -> list:
    """The sorted names of the symbols in values (scalars or ints)."""
    names = set()
    for c in values:
        names |= sc.scalar_variables(sc.as_scalar(c))
    return sorted(names)


@dataclass(frozen=True)
class NormalForm:
    label: str
    alpha: OneForm
    omega: TwoForm
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
    lie: Optional[LieAlgebra] = None  # possibly symbolic
    alpha: Optional[OneForm] = None
    omega: Optional[TwoForm] = None
    nondeg: Optional[sc.Scalar] = None  # printed condition, or a normal form's volume
    sample: dict = field(default_factory=dict)          # full validated sample
    known_deviations: frozenset = frozenset()
    normal_forms: tuple = ()
    lsa: Optional[LsaExpectation] = None
    aliases: tuple = ()

    def algebra(self, assignment: Optional[dict] = None) -> LieAlgebra:
        return self.lie.subs(assignment) if assignment else self.lie

    @property
    def struct_params(self) -> dict:
        """The sample values of the brackets' symbols."""
        names = symbols(x for v in self.lie.brackets.values() for x in v)
        return {k: v for k, v in self.sample.items() if k in names}

    def param_names(self) -> list:
        if self.kind == "heisenberg":
            return ["n"]
        values = [x for v in self.lie.brackets.values() for x in v]
        if self.alpha is not None:
            values += self.alpha.coeffs
        if self.omega is not None:
            values += self.omega.coeffs.values()
        return symbols(values)


def heisenberg(n: int) -> LieAlgebra:
    """H_{2n+1}: basis e_1..e_n, f_1..f_n, z with [e_i, f_i] = z."""
    dim = 2 * n + 1
    return LieAlgebra.from_table(dim, {(i, n + i): {dim: 1} for i in range(1, n + 1)})


_HEISENBERG = CatalogEntry(name="Heisenberg", dim=0, kind="heisenberg")


# ---------------------------------------------------------------------------
# Reading catalog.alg


def _forms(dim: int, lines: dict) -> tuple:
    return OneForm(dim, lines["alpha"][()]), TwoForm(dim, lines["omega"])


def _entry(parsed) -> CatalogEntry:
    """The catalog entry of a parsed file entry."""
    kind, name, *aliases = parsed.head
    n, lines = parsed.dim, parsed.lines
    alpha, omega = _forms(n, lines)
    normal_forms, lsa = [], None
    for (key, *label), s in parsed.sections:
        if key == "normal":
            member = s["member"].get(())
            columns = [s["map"].get((i,), sc.zero_vec(n)) for i in range(n)]
            normal_forms.append(NormalForm(
                label[0],
                *_forms(n, s),
                tuple(s["reeb"][()]),
                None if member is None else (alpha.subs(member), omega.subs(member)),
                LinearMap.from_columns(columns) if s["map"] else None,
                s["witness"].get(()),
            ))
        elif key == "lsa":
            table = {
                (i + 1, j + 1): {k + 1: c for k, c in enumerate(v) if c}
                for (i, j), v in s["product"].items()
            }
            lsa = LsaExpectation(*_forms(n, s), table, s["note"].get((), ""))
    return CatalogEntry(
        name=name,
        dim=n,
        kind=kind,
        lie=LieAlgebra(n, lines["bracket"]),
        alpha=alpha,
        omega=omega,
        nondeg=lines["nondeg"].get(()),
        sample=lines["sample"].get((), {}),
        known_deviations=frozenset(lines["deviation"].get((), "").split()),
        normal_forms=tuple(normal_forms),
        lsa=lsa,
        aliases=tuple(aliases),
    )


@cache
def _registry() -> tuple:
    """(entries by name and alias, listing order, the corrected aff(2,R)
    extension with lam free), from one reading of catalog.alg, on first
    use.  The normal forms of an entry are child entries, listed after the
    3-dimensional entries; the Heisenberg family comes before the aff(2,R)
    extension."""
    text = resources.files(__package__).joinpath("catalog.alg").read_text(encoding="utf-8")
    entries, corrected = [], None
    for parsed in parse_catalog(text):
        entries.append(_entry(parsed))
        for (key, *_), s in parsed.sections:
            if key == "corrected":
                corrected = LieAlgebra(parsed.dim, {**parsed.lines["bracket"], **s["bracket"]})
    reg, children = {}, []
    for entry in entries + [_HEISENBERG]:
        for name in (entry.name, *entry.aliases):
            reg[name] = entry
        for nf in entry.normal_forms:
            nf_values = [*nf.alpha.coeffs, *nf.omega.coeffs.values()]
            child = CatalogEntry(
                name=f"{entry.name}-{nf.label}",
                aliases=tuple(f"{a}-{nf.label}" for a in entry.aliases),
                dim=entry.dim,
                kind="normal",
                lie=entry.lie,
                alpha=nf.alpha,
                omega=nf.omega,
                nondeg=volume_coeff(entry.lie, nf.alpha, nf.omega),
                sample={"lam": Fraction(1)} if "lam" in symbols(nf_values) else {},
            )
            children.append(child.name)
            for name in (child.name, *child.aliases):
                reg[name] = child
    order = (
        [e.name for e in entries if e.dim == 3]
        + children
        + [e.name for e in entries if e.kind == "family" and e.dim != 3]
        + [_HEISENBERG.name]
        + [e.name for e in entries if e.kind == "aff"]
    )
    return reg, order, corrected


def __getattr__(name: str):
    """``AFF_ALPHA`` and ``AFF_OMEGA``: the forms of the aff(2,R)
    extension."""
    if name in ("AFF_ALPHA", "AFF_OMEGA"):
        entry = get_entry("aff(2,R)⋉<e7>")
        return entry.alpha if name == "AFF_ALPHA" else entry.omega
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def aff_corrected_algebra(lam_value: Fraction) -> LieAlgebra:
    return _registry()[2].subs({"lam": lam_value})


def list_entries() -> list:
    return list(_registry()[1])


def get_entry(name: str) -> CatalogEntry:
    registry = _registry()[0]
    if name not in registry:
        raise UnknownEntry(f"no catalog entry named '{name}'")
    return registry[name]


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
        relevant = {v: params[v] for v in sc.scalar_variables(entry.nondeg) if v in params}
        if sc.poly_eval(entry.nondeg, params) == 0:
            raise DegenerateParams(
                f"nondegeneracy condition of {name} vanishes at {sc.bindings_str(relevant)}"
            )
    return L, alpha, omega


def export_entry(name: str, params: Optional[dict] = None) -> str:
    """Entry as .alg text; parametric entries export their symbols."""
    entry = get_entry(name)
    if entry.kind == "heisenberg" or params:
        L, alpha, omega = instantiate(name, params)
        return format_algebra(L, alpha, omega, params)
    return format_algebra(entry.algebra(), entry.alpha, entry.omega, {})
