"""The Lie, form and extension layers against the Scalar loops they were
first written as.

Each ``seed_*`` function is such a loop, kept as the reference.  Its
brackets, form values and map images come from ``pairwise``, which reads
them off the stored coefficients: brackets accumulated densely over the
stored pairs, the Jacobi identity as a
triple loop of brackets, ad, the centre, the derived series and the
isomorphism check from one bracket per basis pair, forms evaluated pair
by pair, and the double-extension conditions evaluated on one vector or
one pair of the adapted basis at a time.  The tests compare values and
printed strings on random structure constants of dimension 1-7 (most of
them violate the Jacobi identity), and on symbolic ones of dimension 1-4:
polynomials in two symbols, and quotients in one symbol, where a quotient
has a unique reduced printed form.  Where a seed raises, the function it
checks raises the same error.
"""

from __future__ import annotations

import random
from dataclasses import fields
from fractions import Fraction as F
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import coslie.extensions as ext
from coslie import scalars as sc
from coslie.catalog import get_entry, heisenberg, list_entries
from coslie.cosymplectic import CosymplecticStructure, to_symplectic
from coslie.errors import ConditionsFail, CoslieError
from coslie.extensions import (
    ExtensionData,
    IstComponentReport,
    construct_A,
    construct_B,
    construct_C,
    ist_check,
)
from coslie.exterior import OneForm, ThreeForm, TwoForm, d1, d2, form_twist
from coslie.lie_core import (
    IsoReport,
    LieAlgebra,
    LinearMap,
    ad,
    bracket,
    center,
    check_isomorphism,
    check_jacobi,
    derived_series,
    is_derivation,
    partial_phi,
)
from coslie.scalars import Poly, ratfn
import pairwise as pw
from test_extensions import ABAR, G34, GBAR, OBAR, random_extension, structured_ist_data

# ---------------------------------------------------------------------------
# The reference loops


def seed_check_jacobi(L):
    defects = []
    for i in range(L.dim):
        ei = sc.basis_vec(L.dim, i)
        for j in range(i + 1, L.dim):
            ej = sc.basis_vec(L.dim, j)
            for k in range(j + 1, L.dim):
                ek = sc.basis_vec(L.dim, k)
                d = pw.vec_add(
                    pw.bracket(L, pw.bracket_basis(L, i, j), ek),
                    pw.vec_add(
                        pw.bracket(L, pw.bracket_basis(L, j, k), ei),
                        pw.bracket(L, pw.bracket_basis(L, k, i), ej),
                    ),
                )
                if any(d):
                    defects.append((i + 1, j + 1, k + 1, d))
    return defects


def seed_ad(L, x):
    cols = [pw.bracket(L, x, sc.basis_vec(L.dim, j)) for j in range(L.dim)]
    return LinearMap.from_columns(cols)


def seed_center(L):
    rows = []
    for j in range(L.dim):
        for k in range(L.dim):
            rows.append([pw.bracket_basis(L, i, j)[k] for i in range(L.dim)])
    return sc.nullspace(rows)


def seed_derived_series(L):
    chain = [[sc.basis_vec(L.dim, i) for i in range(L.dim)]]
    while True:
        current = chain[-1]
        products = [
            pw.bracket(L, current[p], current[q])
            for p in range(len(current))
            for q in range(p + 1, len(current))
        ]
        nxt = [tuple(r) for r in sc.rref([v for v in products if any(v)])[0]]
        chain.append(nxt)
        if len(nxt) == len(current) or not nxt:
            return chain


def seed_check_isomorphism(L1, L2, M, alpha1=None, alpha2=None, omega1=None, omega2=None):
    invertible = bool(sc.det_poly([list(r) for r in M.matrix]))
    bracket_defects = []
    for i in range(L1.dim):
        for j in range(i + 1, L1.dim):
            d = sc.vec_sub(
                pw.image(M, pw.bracket_basis(L1, i, j)),
                pw.bracket(L2, M.column(i), M.column(j)),
            )
            if any(d):
                bracket_defects.append((i + 1, j + 1, d))
    alpha_defect = None
    if alpha1 is not None and alpha2 is not None:
        pulled = tuple(pw.evaluate(alpha2, M.column(i)) for i in range(L1.dim))
        if pulled != alpha1.coeffs:
            alpha_defect = sc.vec_sub(pulled, alpha1.coeffs)
    omega_defects = []
    if omega1 is not None and omega2 is not None:
        for i in range(L1.dim):
            for j in range(i + 1, L1.dim):
                got = pw.value(omega2, M.column(i), M.column(j))
                want = pw.value_basis(omega1, i, j)
                if got != want:
                    omega_defects.append((i + 1, j + 1, got - want))
    ok = invertible and not bracket_defects and alpha_defect is None and not omega_defects
    return IsoReport(invertible, bracket_defects, alpha_defect, omega_defects, ok)


def seed_partial_phi(L, phi):
    out = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            out[(i, j)] = sc.vec_sub(
                pw.image(phi, pw.bracket_basis(L, i, j)),
                pw.vec_add(
                    pw.bracket(L, phi.column(i), sc.basis_vec(L.dim, j)),
                    pw.bracket(L, sc.basis_vec(L.dim, i), phi.column(j)),
                ),
            )
    return out


def seed_d1(L, alpha):
    return TwoForm(L.dim, {(i, j): -pw.evaluate(alpha, v) for (i, j), v in L.brackets.items()})


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
                pw.value(theta, phi.column(i), sc.basis_vec(n, j))
                + pw.value(theta, sc.basis_vec(n, i), phi.column(j))
            )
    return TwoForm(n, coeffs)


def seed_contract(omega, x):
    n = omega.dim
    return OneForm(n, tuple(pw.value(omega, x, sc.basis_vec(n, l)) for l in range(n)))


def seed_d_lambda_failures(Gbar, E, theta, lhs):
    twist, dlam = form_twist(theta, E.phi), d1(Gbar, E.lam)
    return [
        f"{lhs} != d(lambda) at (e{i + 1}, e{j + 1})"
        for i, j in combinations(range(Gbar.dim), 2)
        if E.t * pw.value_basis(theta, i, j) - pw.value_basis(twist, i, j)
        != pw.value_basis(dlam, i, j)
    ]


def seed_abar_phi(abar, phi):
    return tuple(pw.evaluate(abar, phi.column(i)) for i in range(phi.source_dim))


def seed_ist_components(S, E):
    Gbar, abar, obar = S.algebra, S.alpha, S.omega
    red = S.reduction
    m = red.pair.algebra.dim
    hbasis = red.basis[:m]
    xi = S.reeb
    phi_xi = pw.image(E.phi, xi)

    twist = form_twist(obar, E.phi)
    cond_i = []
    for a in range(m):
        for b in range(a + 1, m):
            val = pw.value(twist, hbasis[a], hbasis[b])
            if val:
                cond_i.append((a + 1, b + 1, val))
    cond_ii = []
    for a in range(m):
        val = pw.evaluate(E.lam, hbasis[a]) - pw.value(obar, hbasis[a], phi_xi)
        if val:
            cond_ii.append((a + 1, val))
    cond_iii = []
    for a in range(m):
        val = pw.value(obar, E.v, hbasis[a]) - pw.evaluate(abar, pw.image(E.phi, hbasis[a]))
        if val:
            cond_iii.append((a + 1, val))
    iv_defect = E.t + pw.evaluate(abar, phi_xi)
    cond_iv = iv_defect or None

    pair = to_symplectic(Gbar, abar, obar)
    n = Gbar.dim
    cols = [tuple(E.phi.column(i)) + (E.lam.coeffs[i],) for i in range(n)]
    cols.append(tuple(E.v) + (E.t,))
    D = LinearMap.from_columns(cols)
    direct = ist_check(pair, D)
    ok = not cond_i and not cond_ii and not cond_iii and cond_iv is None
    return IstComponentReport(cond_i, cond_ii, cond_iii, cond_iv, direct, ok, ok == direct)


def seed_closure_failures(S, E):
    Gbar, obar = S.algebra, S.omega
    failures = []
    red = S.reduction
    m = red.pair.algebra.dim
    hbasis = red.basis[:m]
    xi = S.reeb
    phi_xi = pw.image(E.phi, xi)
    for a in range(m):
        for b in range(a + 1, m):
            if pw.value(obar, pw.bracket(Gbar, hbasis[a], hbasis[b]), phi_xi):
                failures.append(f"obar([h{a + 1}, h{b + 1}], phi(xi)) != 0")
    br = pw.bracket(Gbar, phi_xi, xi)
    for a in range(m):
        if pw.value(obar, br, hbasis[a]):
            failures.append(f"obar([phi(xi), xi], h{a + 1}) != 0")
            break
    return failures


# ---------------------------------------------------------------------------
# Comparison: equal values that also print alike


def same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b and str(a) == str(b)


def same_dict(a: dict, b: dict) -> bool:
    return list(a) == list(b) and all(same(a[k], b[k]) for k in a)


def run(f, *args):
    """(f(*args), None), or (None, (type, message)) of the error it raises."""
    try:
        return f(*args), None
    except (CoslieError, TypeError) as exc:
        return None, (type(exc), str(exc))


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
def algebras(draw, kind, n=None):
    n = draw(st.integers(1, MAX_DIM[kind])) if n is None else n
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
    assert same(bracket(L, x, y), pw.bracket(L, x, y))
    for i in range(L.dim):
        for j in range(L.dim):
            ei, ej = sc.basis_vec(L.dim, i), sc.basis_vec(L.dim, j)
            assert same(bracket(L, ei, ej), pw.bracket_basis(L, i, j))


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


@given(ALL_KINDS.flatmap(lambda kind: cases(kind, "vec")))
def test_ad_matches_the_seed_loop(case):
    L, x = case
    got, want = ad(L, x), seed_ad(L, x)
    assert (got.source_dim, got.target_dim) == (want.source_dim, want.target_dim)
    assert same(got.matrix, want.matrix)


def same_chain(a: list, b: list) -> bool:
    return len(a) == len(b) and all(same(tuple(x), tuple(y)) for x, y in zip(a, b))


def catalog_algebras() -> list:
    out = [heisenberg(2)]
    for name in list_entries():
        entry = get_entry(name)
        if entry.kind != "heisenberg":
            out.append(entry.algebra(entry.struct_params))
    return out


@given(ALL_KINDS.flatmap(lambda kind: cases(kind)))
def test_center_and_derived_series_match_the_seed_loops(case):
    # both refuse symbolic structure constants, with the same error
    (L,) = case
    for f, seed in ((center, seed_center), (derived_series, seed_derived_series)):
        (got, err), (want, want_err) = run(f, L), run(seed, L)
        assert err == want_err, f.__name__
        assert want_err or same_chain(got, want), f.__name__


def test_center_and_derived_series_match_the_seed_loops_on_the_catalog():
    # the catalog's algebras have centres and proper derived series
    chains = set()
    for L in catalog_algebras():
        for f, seed in ((center, seed_center), (derived_series, seed_derived_series)):
            (got, err), (want, want_err) = run(f, L), run(seed, L)
            assert err == want_err
            assert want_err or same_chain(got, want)
        if not L.is_parametric():
            chains.add(tuple(len(D) for D in derived_series(L)))
    assert len(chains) > 5


@st.composite
def iso_cases(draw, kind):
    """(L1, L2, M, forms): L2 is L1 or another algebra of its dimension, M
    the identity or any map, and forms either empty or two one-forms and
    two two-forms, each pair equal or drawn apart."""
    L1 = draw(algebras(kind))
    n = L1.dim
    L2 = draw(st.one_of(st.just(L1), algebras(kind, n)))
    M = draw(st.one_of(st.just(LinearMap.identity(n)), maps(n, kind)))
    if not draw(st.booleans()):
        return L1, L2, M, ()
    one = vectors(n, kind).map(lambda v: OneForm(n, v))
    alpha1, omega1 = draw(one), draw(two_forms(n, kind))
    alpha2 = draw(st.one_of(st.just(alpha1), one))
    omega2 = draw(st.one_of(st.just(omega1), two_forms(n, kind)))
    return L1, L2, M, (alpha1, alpha2, omega1, omega2)


def same_defects(a: list, b: list) -> bool:
    return [d[:2] for d in a] == [d[:2] for d in b] and all(same(x[2], y[2]) for x, y in zip(a, b))


def same_report(got: IsoReport, want: IsoReport) -> bool:
    """Every field equal, defects in the same order and printed alike."""
    return (
        (got.invertible, got.ok, str(got)) == (want.invertible, want.ok, str(want))
        and same_defects(got.bracket_defects, want.bracket_defects)
        and same_defects(got.omega_defects, want.omega_defects)
        and (got.alpha_defect is None) == (want.alpha_defect is None)
        and (got.alpha_defect is None or same(got.alpha_defect, want.alpha_defect))
    )


@given(ALL_KINDS.flatmap(iso_cases))
def test_check_isomorphism_matches_the_seed_loop(case):
    L1, L2, M, forms = case
    got, err = run(check_isomorphism, L1, L2, M, *forms)
    want, want_err = run(seed_check_isomorphism, L1, L2, M, *forms)
    assert err == want_err
    assert want_err or same_report(got, want)


def test_check_isomorphism_matches_the_seed_loop_on_the_catalog_witnesses():
    # each normal form's witness as ``verify`` checks it, and with the
    # forms of the two sides swapped, which fails on the forms
    reports = []
    for name in list_entries():
        entry = get_entry(name)
        for nf in entry.normal_forms:
            if nf.witness_map is None:
                continue
            subs = {} if nf.witness_lam is None else {"lam": nf.witness_lam}
            alpha1, omega1 = nf.alpha.subs(subs), nf.omega.subs(subs)
            alpha2, omega2 = nf.witness_member
            L = entry.algebra()
            for forms in ((alpha1, alpha2, omega1, omega2), (alpha2, alpha1, omega2, omega1)):
                got = check_isomorphism(L, L, nf.witness_map, *forms)
                assert same_report(got, seed_check_isomorphism(L, L, nf.witness_map, *forms))
                reports.append(got.ok)
    assert True in reports and False in reports


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


@given(ALL_KINDS.flatmap(lambda kind: cases(kind, "two", "vec")))
def test_contract_matches_the_pairwise_loop(case):
    L, omega, x = case
    assert same(omega.contract(x).coeffs, seed_contract(omega, x).coeffs)


@given(ALL_KINDS.flatmap(lambda kind: cases(kind, "map", "one", "vec", "two", "two")))
def test_d_lambda_failures_match_the_pairwise_loop(case):
    # theta drawn apart from the data's own, and t from its first coefficient
    L, phi, lam, v, theta, other = case
    E = ExtensionData(phi, lam, v, v[0] if v else 0, other)
    got = ext._d_lambda_failures(L, E, theta, "lhs")
    assert got == seed_d_lambda_failures(L, E, theta, "lhs")
    assert ext._d_lambda_failures(L, E, E.theta, "t") == seed_d_lambda_failures(L, E, E.theta, "t")


# ---------------------------------------------------------------------------
# Extension layer: the conditions over the adapted basis


def symbolic_extension(rng, n) -> ExtensionData:
    """Extension data whose coefficients are 0, small integers or
    polynomials in p and q."""
    pool = [F(0), F(0), F(1), F(-2), P, P + 1, P * Q - 1, 2 * Q]
    rnd = lambda: rng.choice(pool)
    phi = LinearMap(n, n, tuple(tuple(rnd() for _ in range(n)) for _ in range(n)))
    theta = TwoForm(n, {(i, j): rnd() for i in range(n) for j in range(i + 1, n)})
    return ExtensionData(phi, OneForm(n, tuple(rnd() for _ in range(n))), tuple(rnd() for _ in range(n)), rnd(), theta)


def base_structures() -> list:
    """Cosymplectic bases of dimension 3: rational ones and the symbolic
    family of g_{3.4}^{-1}, whose Reeb vector has quotients in four symbols."""
    g34 = get_entry("g_{3.4}^{-1}")
    bases = [
        (GBAR, ABAR, OBAR),
        (LieAlgebra.abelian(3), ABAR, OBAR),
        (LieAlgebra.from_table(3, {(2, 3): {1: 1}}), OneForm.dual(3, 2), TwoForm.from_dict(3, {(1, 3): 1})),
        (G34, ABAR, OBAR),
        (GBAR, OneForm(3, (0, 1, 1)), OBAR),
        (LieAlgebra.abelian(3), OneForm(3, (1, 2, 1)), TwoForm.from_dict(3, {(1, 2): 1, (2, 3): F(1, 2)})),
        (g34.algebra(), g34.alpha, g34.omega),
    ]
    return [CosymplecticStructure.make(*base) for base in bases]


def extension_cases() -> list:
    """(structure, data): the generators of the extension tests on every
    base, zero data, and symbolic data."""
    rng = random.Random(2929)
    out = []
    for S in base_structures():
        data = [ExtensionData.zero(3)]
        data += [random_extension(rng, 3) for _ in range(12)]
        data += [structured_ist_data(rng) for _ in range(6)]
        data += [symbolic_extension(rng, 3) for _ in range(6)]
        out += [(S, E) for E in data]
    return out


EXTENSION_CASES = extension_cases()


def deep(x):
    """Lists as tuples, so that ``same`` compares them entry by entry."""
    return tuple(map(deep, x)) if isinstance(x, (list, tuple)) else x


def test_ist_components_match_the_pairwise_loop():
    seen = set()
    for S, E in EXTENSION_CASES:
        got, want = ext._ist_components(S, E), seed_ist_components(S, E)
        for f in fields(IstComponentReport):
            assert same(deep(getattr(got, f.name)), deep(getattr(want, f.name))), (f.name, E)
        seen.add(tuple(got.failed()))
    assert () in seen and len(seen) > 4


def test_closure_conditions_match_the_pairwise_loop():
    seen = set()
    for S, E in EXTENSION_CASES:
        got = ext._closure_failures(S, E)
        assert got == seed_closure_failures(S, E)
        seen.update(failure[:9] for failure in got)
    assert seen == {"obar([h1,", "obar([phi"}


def construction_outcome(construct, S, E):
    """The failure list of a construction, its structure, or the error it
    raises, with abar and obar of S and data E."""
    args = (E.phi, E.v) if construct is construct_C else (E,)
    try:
        res = construct(S.algebra, S.alpha, S.omega, *args)
    except ConditionsFail as exc:
        return "fail", exc.failures
    except (CoslieError, AssertionError) as exc:
        return type(exc), str(exc)
    T = res.structure
    return "ok", (T.algebra, T.alpha, T.omega, T.reeb)


SEEDS = {
    "_ist_components": seed_ist_components,
    "_closure_failures": seed_closure_failures,
    "_d_lambda_failures": seed_d_lambda_failures,
    "_abar_phi": seed_abar_phi,
}


@pytest.mark.parametrize("construct", [construct_A, construct_B, construct_C], ids="ABC")
def test_construction_failure_lists_match_the_pairwise_loops(construct):
    # the same construction with every restated condition replaced by its
    # seed: same failures in the same order, or the same structure
    kinds = set()
    for S, E in EXTENSION_CASES:
        if construct is construct_B:  # theta = obar_phi, so B gets past its theta test
            E = ExtensionData(E.phi, E.lam, sc.zero_vec(3), E.t, form_twist(S.omega, E.phi))
        got = construction_outcome(construct, S, E)
        with mock.patch.multiple(ext, **SEEDS), mock.patch.object(TwoForm, "contract", seed_contract):
            want = construction_outcome(construct, S, E)
        assert got == want, (S.algebra, E)
        kinds.add(got[0])
    assert {"fail", "ok"} <= kinds
