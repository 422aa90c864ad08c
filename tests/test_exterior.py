from __future__ import annotations

import random
import re
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from coslie import scalars as sc
from coslie.errors import DimensionMismatch, EvenDimension
from coslie.exterior import (
    OneForm,
    ThreeForm,
    TwoForm,
    cocycle_spaces,
    d1,
    d2,
    differential,
    is_1cocycle,
    is_2cocycle,
    volume_coeff,
)
from coslie.lie_core import LieAlgebra, check_jacobi
from coslie.scalars import Poly

import pairwise as pw


# ---------------------------------------------------------------------------
# An independent oracle: full wedge expansion of alpha ^ omega^n over sorted
# index tuples.  Kept deliberately separate from the production algorithm.


def wedge(a: dict, b: dict) -> dict:
    out: dict = {}
    for ia, ca in a.items():
        for ib, cb in b.items():
            if set(ia) & set(ib):
                continue
            merged = tuple(sorted(ia + ib))
            seq = list(ia + ib)
            sign = 1
            # bubble sort counting swaps
            for p in range(len(seq)):
                for q in range(len(seq) - 1 - p):
                    if seq[q] > seq[q + 1]:
                        seq[q], seq[q + 1] = seq[q + 1], seq[q]
                        sign = -sign
            term = ca * cb
            out[merged] = out.get(merged, sc.ZERO) + (term if sign > 0 else -term)
    return {k: v for k, v in out.items() if v}


def oracle_volume(dim: int, alpha: OneForm, omega: TwoForm):
    acc = {(i,): c for i, c in enumerate(alpha.coeffs) if c}
    w = {pair: c for pair, c in omega.coeffs.items()}
    result = dict(acc)
    for _ in range((dim - 1) // 2):
        result = wedge(result, w)
    return result.get(tuple(range(dim)), sc.ZERO)


# ---------------------------------------------------------------------------
# forms


def test_forms_keep_nonzero_coefficients_on_increasing_indices():
    w = TwoForm(3, {(1, 2): F(2), (0, 2): 0, (0, 1): Poly.var("p")})
    assert list(w.coeffs) == [(0, 1), (1, 2)]
    assert ThreeForm(4, {(1, 2, 3): 1, (0, 1, 3): 0}).coeffs == {(1, 2, 3): F(1)}
    for form, coeffs, message in (
        (TwoForm, {(1, 0): 1}, "bad two-form index pair (1, 0)"),
        (TwoForm, {(1, 1): 1}, "bad two-form index pair (1, 1)"),
        (TwoForm, {(-1, 2): 1}, "bad two-form index pair (-1, 2)"),
        (TwoForm, {(0, 3): 0}, "bad two-form index pair (0, 3)"),
        (ThreeForm, {(0, 2, 1): 1}, "bad three-form index triple (0, 2, 1)"),
        (ThreeForm, {(0, 1, 3): 1}, "bad three-form index triple (0, 1, 3)"),
    ):
        with pytest.raises(DimensionMismatch, match=re.escape(message)):
            form(3, coeffs)


# ---------------------------------------------------------------------------
# differentials


def test_d1_examples(g21):
    assert d1(g21, OneForm.dual(3, 1)).coeffs == {(0, 1): F(-1)}
    assert d1(g21, OneForm.dual(3, 3)).is_zero()
    assert d1(LieAlgebra.abelian(3), OneForm.dual(3, 2)).is_zero()


def test_d2_examples(g31, g34):
    assert d2(g31, TwoForm.from_dict(3, {(2, 3): 1})).is_zero()
    assert d2(LieAlgebra.abelian(4), TwoForm.from_dict(4, {(1, 4): 2})).is_zero()
    assert d2(g34, TwoForm.from_dict(3, {(1, 2): 1})).is_zero()


def test_cocycle_predicates(g21):
    assert not is_1cocycle(g21, OneForm.dual(3, 1))
    assert is_1cocycle(g21, OneForm.dual(3, 3))
    assert is_1cocycle(g21, OneForm.zero(3))


def test_d2_after_d1_is_zero_on_validated_algebras(g21, g31, g34, g35):
    rng = random.Random(411)
    for L in (g21, g31, g34, g35):
        for _ in range(25):
            alpha = OneForm(3, tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)))
            assert d2(L, d1(L, alpha)).is_zero()


# ---------------------------------------------------------------------------
# volume coefficient


def test_volume_simple_and_generic(g21):
    assert volume_coeff(g21, OneForm.dual(3, 3), TwoForm.from_dict(3, {(1, 2): 1})) == 1
    alpha = OneForm(3, (Poly.var("a1"), Poly.var("a2"), Poly.var("a3")))
    omega = TwoForm.from_dict(
        3, {(1, 2): Poly.var("a12"), (1, 3): Poly.var("a13"), (2, 3): Poly.var("a23")}
    )
    got = volume_coeff(g21, alpha, omega)
    want = (
        Poly.var("a3") * Poly.var("a12")
        - Poly.var("a2") * Poly.var("a13")
        + Poly.var("a1") * Poly.var("a23")
    )
    assert got == want


def test_volume_even_dimension_rejected():
    with pytest.raises(EvenDimension):
        volume_coeff(LieAlgebra.abelian(4), OneForm.zero(4), TwoForm.zero(4))


def test_volume_against_wedge_oracle_random_forms():
    rng = random.Random(2718)
    nonzero = [F(c) for c in (-3, -2, -1, 1, 2, 3)]
    for dim in (3, 5, 7, 9):
        L = LieAlgebra.abelian(dim)
        pairs = list(combinations(range(dim), 2))
        for _ in range(12):
            alpha = OneForm(dim, tuple(F(rng.randint(-3, 3)) for _ in range(dim)))
            sparse = rng.sample(pairs, k=min(len(pairs), rng.randint(1, 6)))
            for omega in (
                TwoForm(dim, {p: F(rng.randint(-3, 3)) for p in sparse}),
                TwoForm(dim, {p: rng.choice(nonzero) for p in pairs}),
            ):
                assert volume_coeff(L, alpha, omega) == oracle_volume(dim, alpha, omega)
    # dense forms whose entries are a random mix of symbols and rationals
    for dim in (3, 5, 7):
        L = LieAlgebra.abelian(dim)
        pairs = list(combinations(range(dim), 2))
        for _ in range(4):
            alpha = OneForm(
                dim,
                tuple(rng.choice((Poly.var(f"a{k}"), rng.choice(nonzero))) for k in range(dim)),
            )
            omega = TwoForm(
                dim,
                {
                    (i, j): rng.choice((Poly.var(f"w{i}_{j}"), rng.choice(nonzero)))
                    for i, j in pairs
                },
            )
            vol = volume_coeff(L, alpha, omega)
            assert isinstance(vol, Poly)
            assert vol == oracle_volume(dim, alpha, omega)


def test_volume_linear_in_alpha_and_homogeneous_in_omega():
    rng = random.Random(99)
    dim = 5
    L = LieAlgebra.abelian(dim)
    a1 = OneForm(dim, tuple(F(rng.randint(-3, 3)) for _ in range(dim)))
    a2 = OneForm(dim, tuple(F(rng.randint(-3, 3)) for _ in range(dim)))
    omega = TwoForm(
        dim,
        {
            (0, 1): F(2),
            (2, 3): F(1),
            (1, 4): F(-1),
            (0, 3): F(3),
        },
    )
    s = F(3, 2)
    lhs = volume_coeff(L, OneForm(dim, pw.vec_add(a1.coeffs, a2.coeffs)), omega)
    assert lhs == volume_coeff(L, a1, omega) + volume_coeff(L, a2, omega)
    scaled = TwoForm(dim, {p: s * c for p, c in omega.coeffs.items()})
    n = (dim - 1) // 2
    assert volume_coeff(L, a1, scaled) == s**n * volume_coeff(L, a1, omega)


def test_a52_volume_coefficient_exact_value():
    # the computed volume over the stored family; the catalog's stored
    # condition differs by the sign of the coupled coefficient and is
    # reported as a deviation by verify_all
    from coslie.catalog import get_entry

    entry = get_entry("A_{5,2}")
    vol = volume_coeff(entry.algebra(), entry.alpha, entry.omega)
    a23, a4, a15, a5 = (Poly.var(x) for x in ("a23", "a4", "a15", "a5"))
    assert vol == 2 * a23 * (a4 * a15 - a5 * a23)


# ---------------------------------------------------------------------------
# cocycle spaces


def test_cocycle_spaces_abelian():
    # d = 0 gives no row, and the kernel of zero is the whole space
    for dim in range(1, 6):
        z1, z2 = cocycle_spaces(LieAlgebra.abelian(dim))
        assert [f.coeffs for f in z1] == [OneForm.dual(dim, l + 1).coeffs for l in range(dim)]
        assert [f.coeffs for f in z2] == [{p: F(1)} for p in combinations(range(dim), 2)]


def test_cocycle_spaces_g21(g21):
    z1, z2 = cocycle_spaces(g21)
    assert [f.coeffs for f in z1] == [(F(0), F(1), F(0)), (F(0), F(0), F(1))]
    assert [f.coeffs for f in z2] == [{(0, 1): F(1)}, {(1, 2): F(1)}]


def test_cocycle_spaces_perfect_algebra_has_no_one_cocycles(sl2):
    z1, _ = cocycle_spaces(sl2)
    assert z1 == []


# Reference copies of the monomial-based Z^2 system and the triple-sum d2
# that the sparse triple rows replaced.


def reference_cocycle_spaces(L):
    dim = L.dim
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    rows1 = [[v[l] for l in range(dim)] for v in (pw.bracket_basis(L, i, j) for i, j in pairs)]
    if rows1:
        z1 = [OneForm(dim, v) for v in sc.nullspace(rows1)]
    else:
        z1 = [OneForm.dual(dim, l + 1) for l in range(dim)]
    rows2 = []
    for i, j, k in combinations(range(dim), 3):
        ei, ej, ek = (sc.basis_vec(dim, m) for m in (i, j, k))
        row = []
        for p, q in pairs:
            mono = TwoForm(dim, {(p, q): sc.ONE})
            row.append(
                pw.value(mono, pw.bracket_basis(L, i, j), ek)
                + pw.value(mono, pw.bracket_basis(L, j, k), ei)
                + pw.value(mono, pw.bracket_basis(L, k, i), ej)
            )
        rows2.append(row)
    if rows2:
        z2 = [
            TwoForm(dim, {pairs[c]: v[c] for c in range(len(pairs))})
            for v in sc.nullspace(rows2)
        ]
    else:
        z2 = [TwoForm(dim, {p: sc.ONE}) for p in pairs]
    return z1, z2


def reference_d2(L, omega):
    coeffs = {}
    for i, j, k in combinations(range(L.dim), 3):
        s = (
            pw.value(omega, pw.bracket_basis(L, i, j), sc.basis_vec(L.dim, k))
            + pw.value(omega, pw.bracket_basis(L, j, k), sc.basis_vec(L.dim, i))
            + pw.value(omega, pw.bracket_basis(L, k, i), sc.basis_vec(L.dim, j))
        )
        coeffs[(i, j, k)] = -s
    return coeffs


table_entries = st.one_of(
    st.just(F(0)), st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=3)
)


@st.composite
def bracket_tables(draw):
    """An antisymmetric rational bracket table (not necessarily Jacobi) and
    a rational two-form, dimension 1-7."""
    dim = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    brackets = {
        ij: draw(st.tuples(*[table_entries] * dim))
        for ij in pairs
        if draw(st.booleans())
    }
    omega = TwoForm(dim, {ij: draw(table_entries) for ij in pairs})
    return LieAlgebra(dim, brackets), omega


@given(bracket_tables())
def test_cocycle_spaces_match_monomial_reference(case):
    L, _ = case
    z1, z2 = cocycle_spaces(L)
    r1, r2 = reference_cocycle_spaces(L)
    assert [f.coeffs for f in z1] == [f.coeffs for f in r1]
    assert [f.coeffs for f in z2] == [f.coeffs for f in r2]


@given(bracket_tables())
def test_d2_matches_triple_sum_reference(case):
    L, omega = case
    expected = {t: c for t, c in reference_d2(L, omega).items() if c != 0}
    assert d2(L, omega).coeffs == expected


def test_d2_symbolic_matches_triple_sum_reference():
    a, b = Poly.var("a"), Poly.var("b")
    L = LieAlgebra.from_table(5, {(1, 5): {1: a, 2: 1}, (2, 5): {2: b}, (3, 4): {1: 1}})
    omega = TwoForm.from_dict(5, {(1, 2): a, (1, 5): 1, (3, 4): b, (2, 3): 2})
    expected = {t: c for t, c in reference_d2(L, omega).items() if c}
    got = d2(L, omega).coeffs
    assert set(got) == set(expected)
    assert all(got[t] == expected[t] for t in expected)


def test_catalog_families_are_symbolically_closed():
    from coslie.catalog import get_entry, list_entries

    for name in list_entries():
        entry = get_entry(name)
        if entry.kind not in ("family", "normal"):
            continue
        if entry.name == "A_{5,7}^{a,-a,-1}":
            continue  # documented deviation: printed e^{24} term is not closed
        L = entry.algebra()
        assert d1(L, entry.alpha).is_zero(), name
        assert d2(L, entry.omega).is_zero(), name


# ---------------------------------------------------------------------------
# the differential in every degree


def compose(upper: list, lower: list) -> dict:
    """The nonzero entries of the product of two matrices of sparse rows
    ``(T, {S: c})``, keyed by (row of upper, column of lower)."""
    lower_rows = dict(lower)
    out: dict = {}
    for T, row in upper:
        for S, c in row.items():
            for R, x in lower_rows.get(S, {}).items():
                out[(T, R)] = out.get((T, R), 0) + c * x
    return {key: v for key, v in out.items() if v}


def test_d_after_d_is_zero_in_every_degree():
    from coslie.catalog import aff_corrected_algebra, get_entry, heisenberg, list_entries

    algebras = {"H_9": heisenberg(4), "aff corrected at lam=1": aff_corrected_algebra(F(1))}
    for name in list_entries():
        entry = get_entry(name)
        if entry.kind != "heisenberg":
            L = entry.algebra(entry.struct_params)
            if not L.is_parametric():
                algebras[name] = L
    assert len(algebras) == 34
    for name, L in algebras.items():
        assert differential(L, 1), name  # no catalog algebra is abelian
        for k in range(1, min(4, L.dim - 1) + 1):
            assert compose(differential(L, k + 1), differential(L, k)) == {}, (name, k)


def test_the_differential_on_functions_is_zero():
    # d(f)(x) = x.f = 0 for trivial coefficients, so d_0 has no rows, and
    # there are no forms of negative degree
    from coslie.catalog import get_entry, heisenberg

    entry = get_entry("g_{3.4}^{-1}")
    for L in (heisenberg(1), entry.algebra(entry.struct_params)):
        assert differential(L, 0) == []
        assert differential(L, 1)
        assert compose(differential(L, 1), differential(L, 0)) == {}
        with pytest.raises(ValueError, match="degree -1"):
            differential(L, -1)


@st.composite
def dense_tables(draw):
    """An antisymmetric rational table with every bracket drawn, dimension
    1-6: most violate the Jacobi identity, and those of dimension below 3
    satisfy it."""
    dim = draw(st.integers(1, 6))
    return LieAlgebra(
        dim, {ij: draw(st.tuples(*[table_entries] * dim)) for ij in combinations(range(dim), 2)}
    )


@given(dense_tables())
def test_d2_after_d1_vanishes_exactly_on_lie_algebras(L):
    # d2(d1 alpha)(x, y, z) = alpha(Jacobiator of x, y, z), for every alpha
    assert bool(check_jacobi(L)) == bool(compose(differential(L, 2), differential(L, 1)))


def monomial_value(S: tuple, vectors: list):
    """e^S(v_1, ..., v_k): the determinant of the v_i read at the indices
    of S, by the Leibniz formula."""
    total = F(0)
    for perm in permutations(range(len(S))):
        inversions = sum(p > q for p, q in combinations(perm, 2))
        term = F(-1) ** inversions
        for v, col in zip(vectors, perm):
            term *= v[S[col]]
        total += term
    return total


def formula_entry(L, T: tuple, S: tuple):
    """(d e^S)(e_T) from the defining sum over a < b of
    (-1)^(a+b) e^S([e_{T_a}, e_{T_b}], the other e_{T_c})."""
    basis = [sc.basis_vec(L.dim, m) for m in range(L.dim)]
    total = F(0)
    for a, b in combinations(range(len(T)), 2):
        rest = [basis[m] for c, m in enumerate(T) if c not in (a, b)]
        value = monomial_value(S, [pw.bracket_basis(L, T[a], T[b]), *rest])
        total += value if (a + b) % 2 == 0 else -value
    return total


@given(bracket_tables())
def test_differential_in_degree_three_matches_the_formula(case):
    L, _ = case
    rows = dict(differential(L, 3))
    r = L.ad_numerators[1]
    for T in combinations(range(L.dim), 4):
        row = rows.get(T, {})
        assert all(row.values())
        for S in combinations(range(L.dim), 3):
            assert F(row.get(S, 0), r) == formula_entry(L, T, S), (T, S)
