"""The Lie and form layers against the Scalar loops they were first written as.

Each ``seed_*`` function is such a loop, kept as the reference: brackets
accumulated densely over the stored pairs, the Jacobi identity as a
triple loop of brackets, forms evaluated pair by pair.  The tests compare
values and printed strings on random structure constants of dimension
1-7 (most of them violate the Jacobi identity), and on symbolic ones of
dimension 1-4: polynomials in two symbols, and quotients in one symbol,
where a quotient has a unique reduced printed form.
"""

from __future__ import annotations

from fractions import Fraction as F
from itertools import combinations

from hypothesis import given, strategies as st

from coslie import scalars as sc
from coslie.exterior import OneForm, ThreeForm, TwoForm, d1, d2, form_twist
from coslie.lie_core import LieAlgebra, LinearMap, bracket, check_jacobi, is_derivation, partial_phi
from coslie.scalars import Poly, ratfn

# ---------------------------------------------------------------------------
# The reference loops


def seed_bracket(L, x, y):
    out = sc.zero_vec(L.dim)
    for (i, j), v in L.brackets.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            out = sc.vec_add(out, sc.vec_scale(c, v))
    return out


def seed_check_jacobi(L):
    defects = []
    for i in range(L.dim):
        ei = sc.basis_vec(L.dim, i)
        for j in range(i + 1, L.dim):
            ej = sc.basis_vec(L.dim, j)
            for k in range(j + 1, L.dim):
                ek = sc.basis_vec(L.dim, k)
                d = sc.vec_add(
                    seed_bracket(L, L.bracket_basis(i, j), ek),
                    sc.vec_add(
                        seed_bracket(L, L.bracket_basis(j, k), ei),
                        seed_bracket(L, L.bracket_basis(k, i), ej),
                    ),
                )
                if any(d):
                    defects.append((i + 1, j + 1, k + 1, d))
    return defects


def seed_partial_phi(L, phi):
    out = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            out[(i, j)] = sc.vec_sub(
                phi.apply(L.bracket_basis(i, j)),
                sc.vec_add(
                    seed_bracket(L, phi.column(i), sc.basis_vec(L.dim, j)),
                    seed_bracket(L, sc.basis_vec(L.dim, i), phi.column(j)),
                ),
            )
    return out


def seed_d1(L, alpha):
    return TwoForm(L.dim, {(i, j): -alpha.apply(v) for (i, j), v in L.brackets.items()})


def seed_triple_rows(L):
    rows = []
    for i, j, k in combinations(range(L.dim), 3):
        row: dict = {}
        for ab, m, sign in (((i, j), k, 1), ((j, k), i, 1), ((i, k), j, -1)):
            x = L.brackets.get(ab)
            if x is None:
                continue
            for l, xl in enumerate(x):
                if l == m or not xl:
                    continue
                pair = (l, m) if l < m else (m, l)
                term = xl if (sign > 0) == (l < m) else -xl
                row[pair] = row.get(pair, sc.ZERO) + term
        row = {pair: c for pair, c in row.items() if c}
        if row:
            rows.append(((i, j, k), row))
    return rows


def seed_d2(L, omega):
    coeffs = {}
    for triple, row in seed_triple_rows(L):
        s = sum(
            (c * omega.coeffs[pair] for pair, c in row.items() if pair in omega.coeffs),
            start=sc.ZERO,
        )
        coeffs[triple] = -s
    return ThreeForm(L.dim, coeffs)


def seed_form_twist(theta, phi):
    n = theta.dim
    coeffs = {}
    for i in range(n):
        for j in range(i + 1, n):
            coeffs[(i, j)] = (
                theta.value(phi.column(i), sc.basis_vec(n, j))
                + theta.value(sc.basis_vec(n, i), phi.column(j))
            )
    return TwoForm(n, coeffs)


# ---------------------------------------------------------------------------
# Comparison: equal values that also print alike


def same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b and str(a) == str(b)


def same_dict(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(same(a[k], b[k]) for k in a)


# ---------------------------------------------------------------------------
# Random data

P, Q = Poly.var("p"), Poly.var("q")
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
KINDS = {
    # mostly zero, so brackets are sparse and some vectors vanish
    "rational": st.one_of(st.just(F(0)), st.just(F(0)), rationals),
    # polynomials in p and q: canonical, so any order of sums prints alike
    "poly": st.one_of(
        st.just(F(0)),
        rationals,
        st.tuples(rationals, rationals, rationals).map(lambda t: t[0] * P + t[1] * Q * P + t[2]),
    ),
    # one symbol: a quotient reduces to a unique printed form
    "ratfn": st.one_of(
        st.just(F(0)),
        rationals,
        st.tuples(rationals, rationals).map(lambda t: t[0] * P + t[1]),
        st.tuples(rationals, st.sampled_from([1, 2, -3])).map(
            lambda t: ratfn(F(1) + t[0] * P, P + t[1])
        ),
    ),
}


# symbolic arithmetic is slow, so symbolic algebras stay smaller
MAX_DIM = {"rational": 7, "poly": 4, "ratfn": 3}


@st.composite
def algebras(draw, kind):
    n = draw(st.integers(1, MAX_DIM[kind]))
    entries = KINDS[kind]
    brackets = {
        (i, j): tuple(draw(entries) for _ in range(n))
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    }
    return LieAlgebra(n, brackets)


def vectors(n, kind):
    return st.tuples(*[KINDS[kind]] * n)


def maps(n, kind):
    return st.lists(vectors(n, kind), min_size=n, max_size=n).map(
        lambda rows: LinearMap(n, n, tuple(rows))
    )


def two_forms(n, kind):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return st.lists(KINDS[kind], min_size=len(pairs), max_size=len(pairs)).map(
        lambda cs: TwoForm(n, dict(zip(pairs, cs)))
    )


def cases(kind, *parts):
    """An algebra of the given kind with data of the same kind drawn for
    each part: "vec", "map", "one" (form) or "two" (form)."""
    make = {
        "vec": vectors,
        "map": maps,
        "one": lambda n, k: vectors(n, k).map(lambda v: OneForm(n, v)),
        "two": two_forms,
    }
    return algebras(kind).flatmap(
        lambda L: st.tuples(st.just(L), *(make[p](L.dim, kind) for p in parts))
    )


ALL_KINDS = st.sampled_from(sorted(KINDS))


# ---------------------------------------------------------------------------
# Lie layer


@given(ALL_KINDS.flatmap(lambda kind: cases(kind, "vec", "vec")))
def test_bracket_matches_the_seed_loop(case):
    L, x, y = case
    assert same(bracket(L, x, y), seed_bracket(L, x, y))
    for i in range(L.dim):
        for j in range(L.dim):
            ei, ej = sc.basis_vec(L.dim, i), sc.basis_vec(L.dim, j)
            assert same(bracket(L, ei, ej), L.bracket_basis(i, j))


@given(ALL_KINDS.flatmap(lambda kind: cases(kind)))
def test_check_jacobi_matches_the_triple_loop(case):
    (L,) = case
    got, want = check_jacobi(L), seed_check_jacobi(L)
    assert [d[:3] for d in got] == [d[:3] for d in want]
    assert all(same(a[3], b[3]) for a, b in zip(got, want))


def test_check_jacobi_reports_every_defect_of_a_dense_algebra():
    # dimension 7 with every pair bracketed: all 35 triples fail at once
    n = 7
    L = LieAlgebra(
        n,
        {
            (i, j): tuple(F((i * 7 + j * 3 + k) % 5 - 2, 1 + (i + k) % 3) for k in range(n))
            for i in range(n)
            for j in range(i + 1, n)
        },
    )
    want = seed_check_jacobi(L)
    assert len(want) == 35
    got = check_jacobi(L)
    assert [d[:3] for d in got] == [d[:3] for d in want]
    assert all(same(a[3], b[3]) for a, b in zip(got, want))


@given(ALL_KINDS.flatmap(lambda kind: cases(kind, "map")))
def test_partial_phi_and_is_derivation_match_the_seed_loop(case):
    L, phi = case
    got, want = partial_phi(L, phi), seed_partial_phi(L, phi)
    assert same_dict(got, want)
    assert [(i, j) for i, j, _ in is_derivation(L, phi)] == [
        (i + 1, j + 1) for (i, j), v in want.items() if any(v)
    ]
    assert all(same(d, want[(i - 1, j - 1)]) for i, j, d in is_derivation(L, phi))


def test_partial_phi_vanishes_on_inner_derivations():
    # ad_x is a derivation exactly when the Jacobi identity holds
    L = LieAlgebra.from_table(5, {(2, 5): {1: 1}, (3, 5): {2: 1}, (3, 4): {1: F(1, 2)}, (4, 5): {3: 1}})
    assert check_jacobi(L) == []
    for x in ((F(1), F(0), F(2), F(-1), F(1, 3)), (P, F(0), F(1), Q, F(0))):
        cols = [bracket(L, x, sc.basis_vec(5, j)) for j in range(5)]
        assert is_derivation(L, LinearMap.from_columns(cols)) == []


# ---------------------------------------------------------------------------
# Form layer


@given(ALL_KINDS.flatmap(lambda kind: cases(kind, "one", "two")))
def test_d1_and_d2_match_the_seed_loops(case):
    L, alpha, omega = case
    got1, want1 = d1(L, alpha), seed_d1(L, alpha)
    assert same_dict(got1.coeffs, want1.coeffs)
    got2, want2 = d2(L, omega), seed_d2(L, omega)
    assert same_dict(got2.coeffs, want2.coeffs)


@given(ALL_KINDS.flatmap(lambda kind: cases(kind, "two", "map")))
def test_form_twist_matches_the_pairwise_loop(case):
    L, theta, phi = case
    got, want = form_twist(theta, phi), seed_form_twist(theta, phi)
    assert same_dict(got.coeffs, want.coeffs)
