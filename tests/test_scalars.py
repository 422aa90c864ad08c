from __future__ import annotations

from fractions import Fraction as F
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import given, strategies as st

from coslie import scalars as sc
from coslie.errors import InexactDivision, MissingVariable, ParametricUnsupported, SingularSystem
from coslie.exterior import OneForm, TwoForm
from coslie.lie_core import LieAlgebra
from coslie.scalars import Poly, RatFn, det_poly, nullspace, poly_eval, ratfn

import pairwise as pw

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def cofactor_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = sc.ZERO
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = m[0][j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


# ---------------------------------------------------------------------------
# operators


def old_sub(a, b):
    """The former ``scalars.sub`` wrapper, kept as the reference for ``-``."""
    if isinstance(a, F) and isinstance(b, (Poly, RatFn)):
        return -b + a
    return a - b


def test_minus_operator_matches_former_sub_wrapper():
    # Fraction - Poly/RatFn falls through Fraction.__sub__ to __rsub__,
    # which computes (-b) + a exactly as the wrapper did
    x, y = Poly.var("x"), Poly.var("y")
    operands = [
        F(0), F(1), F(-3, 4),
        (x + 1) - x, x, x + 1, 2 * x * y - 1,
        RatFn(F(1), x + 1), RatFn(x, x * x + 1), RatFn(x * y, x + y),
        RatFn(x + 1, x + 1),  # unreduced: equals 1
    ]
    for a, b in product(operands, repeat=2):
        got, want = a - b, old_sub(a, b)
        assert type(got) is type(want), (a, b)
        assert str(got) == str(want), (a, b)
        assert (a == b) == (not want), (a, b)


# ---------------------------------------------------------------------------
# truthiness and ==


def old_is_zero(s):
    """The former ``scalars.is_zero``, kept as the reference for ``not s``,
    with the bodies of the deleted ``Poly.is_zero`` and ``RatFn.is_zero``
    inlined."""
    if isinstance(s, Poly):
        return not s.terms
    if isinstance(s, RatFn):
        return old_is_zero(s.num)
    return s == 0


def old_scalars_equal(a, b):
    """The former ``scalars.scalars_equal``, kept as the reference for ``==``."""
    return old_is_zero(a - b)


def old_vec_is_zero(x):
    """The former ``scalars.vec_is_zero``, kept as the reference for ``not any(x)``."""
    return all(old_is_zero(a) for a in x)


def old_vecs_equal(x, y):
    """The former ``scalars.vecs_equal``, kept as the reference for ``==`` on tuples."""
    return len(x) == len(y) and all(old_scalars_equal(a, b) for a, b in zip(x, y))


X, Y = Poly.var("x"), Poly.var("y")
OPERANDS = [
    0, F(0), F(1), F(-3, 4),
    X - X, (X + 1) - X, (X + 2) - X, X, X + 1, 2 * X * Y - 1,
    RatFn(F(1), X + 1), RatFn(X, X * X + 1),
    RatFn(X + 1, X + 1),  # unreduced: equals 1
    RatFn(F(0), X + 1),
]


def test_truthiness_and_equality_match_the_former_predicates():
    for a in OPERANDS:
        assert bool(a) == (not old_is_zero(a)), a
    for a, b in product(OPERANDS, repeat=2):
        assert (a == b) == old_scalars_equal(a, b), (a, b)
        assert (a != b) == (not old_scalars_equal(a, b)), (a, b)
    small = [F(0), (X + 1) - X, F(1), X, RatFn(X + 1, X + 1), RatFn(F(0), X + 1)]
    vectors = [v for k in (1, 2) for v in product(small, repeat=k)]
    for v in vectors:
        assert (not any(v)) == old_vec_is_zero(v), v
    for v, w in product(vectors, repeat=2):
        assert (v == w) == old_vecs_equal(v, w), (v, w)


def test_a_constant_poly_hashes_as_its_fraction():
    two = (X + 2) - X
    assert type(two) is F
    assert two == F(2) and hash(two) == hash(F(2))
    assert len({two, F(2)}) == 1
    assert {F(2): "two"}[two] == "two"
    assert {X - X, F(0), 0} == {0}
    # equal forms are equal keys, whichever type holds an equal coefficient
    a, b = OneForm(2, ((X + 1) - X, F(0))), OneForm(2, (F(1), F(0)))
    assert a == b and len({a, b}) == 1
    assert {b: "e^1"}[a] == "e^1"


def old_oneform_eq(a, b):
    """The former hand-written ``OneForm.__eq__``."""
    return a.dim == b.dim and old_vecs_equal(a.coeffs, b.coeffs)


def old_twoform_eq(a, b):
    """The former hand-written ``TwoForm.__eq__``."""
    if a.dim != b.dim:
        return False
    keys = set(a.coeffs) | set(b.coeffs)
    return all(
        old_scalars_equal(pw.value_basis(a, i, j), pw.value_basis(b, i, j)) for i, j in keys
    )


def old_lie_eq(a, b):
    """The former hand-written ``LieAlgebra.__eq__``."""
    if a.dim != b.dim:
        return False
    keys = set(a.brackets) | set(b.brackets)
    return all(
        old_vecs_equal(pw.bracket_basis(a, i, j), pw.bracket_basis(b, i, j)) for i, j in keys
    )


VALUES = [F(0), F(1), F(-1, 2), X, X * Y - 1, RatFn(F(1), X + 1)]


def written(v):
    """Ways to write the value v: as another scalar type, or as an
    unreduced quotient."""
    if isinstance(v, F):
        return [v, (X + v) - X, RatFn(v * (Y + 1), Y + 1)]
    if isinstance(v, Poly):
        return [v, RatFn(v * (X + 2), X + 2)]
    return [v, RatFn(v.num * (Y + 2), v.den * (Y + 2))]


@st.composite
def written_pairs(draw, slots):
    """(n, a, m, b): scalar lists of slots(n) and slots(m) entries.  About
    half the pairs agree in dimension and in every value, each value
    written twice in independently drawn ways; the others may differ in
    the dimension or in any value.  Zero is drawn often, so that the
    stored keys differ too."""
    value = st.one_of(st.just(F(0)), st.sampled_from(VALUES))
    n = draw(st.integers(1, 4))
    same = draw(st.booleans())
    m = n if same else draw(st.integers(1, 4))
    a = [draw(value) for _ in range(slots(n))]
    b = [v if same or draw(st.booleans()) else draw(value) for v in a[: slots(m)]]
    b += [draw(value) for _ in range(slots(m) - len(b))]
    a, b = ([draw(st.sampled_from(written(v))) for v in vs] for vs in (a, b))
    return n, a, m, b


def pairs_of(n):
    return list(combinations(range(n), 2))


def one_form(n, values):
    return OneForm(n, tuple(values))


def two_form(n, values):
    return TwoForm(n, dict(zip(pairs_of(n), values)))


def lie_algebra(n, values):
    return LieAlgebra(n, {ij: tuple(values[k * n:(k + 1) * n]) for k, ij in enumerate(pairs_of(n))})


@pytest.mark.parametrize(
    "build, slots, old_eq",
    [
        (one_form, lambda n: n, old_oneform_eq),
        (two_form, lambda n: len(pairs_of(n)), old_twoform_eq),
        (lie_algebra, lambda n: n * len(pairs_of(n)), old_lie_eq),
    ],
    ids=["OneForm", "TwoForm", "LieAlgebra"],
)
@given(data=st.data())
def test_field_equality_matches_the_former_hand_written_eq(build, slots, old_eq, data):
    # the stored coefficients are normalized (nonzero only, on i < j keys),
    # so comparing the fields decides the same relation
    n, a, m, b = data.draw(written_pairs(slots))
    A, B = build(n, a), build(m, b)
    assert (A == B) == old_eq(A, B)
    assert (A != B) == (not old_eq(A, B))


# ---------------------------------------------------------------------------
# nullspace


def test_nullspace_annihilator_of_first_coordinate():
    basis = nullspace([[1, 0, 0]])
    assert basis == [(F(0), F(1), F(0)), (F(0), F(0), F(1))]


def test_nullspace_injective_map_is_empty():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace(eye) == []


def test_nullspace_of_no_rows_is_an_error():
    # an empty kernel would be wrong: without a row there is no width, and
    # a zero row of the intended width gives the whole space
    with pytest.raises(ValueError, match="width is unknown"):
        nullspace([])
    assert nullspace([[0, 0]]) == [(F(1), F(0)), (F(0), F(1))]


def test_nullspace_one_cocycles_of_g21_plus_g1():
    # annihilator of the single bracket [e1,e2] = e1, acting on 1-forms
    rows = [[1, 0, 0]]  # alpha(e1) = 0
    basis = nullspace(rows)
    assert basis == [(F(0), F(1), F(0)), (F(0), F(0), F(1))]


@given(
    st.lists(
        st.lists(rationals, min_size=4, max_size=4),
        min_size=2,
        max_size=5,
    )
)
def test_nullspace_rank_nullity_and_membership(rows):
    basis = nullspace(rows)
    assert sc.rank(rows) + len(basis) == 4
    for v in basis:
        out = sc.mat_vec(rows, v)
        assert all(x == 0 for x in out)


def fraction_rref(m):
    """The former ``scalars.rref``: Gauss-Jordan elimination over Fraction,
    kept as the reference for the fraction-free one."""
    a = [[F(x) for x in row] for row in m]
    if not a:
        return [], []
    ncols = len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return [row for row in a[:r]], pivots


LARGE_PRIMES = [1000003, 1000033, 1000037, 1000039, 1000081]
matrix_entries = st.one_of(
    st.just(F(0)),
    rationals,
    st.builds(F, st.integers(-(10**6), 10**6), st.sampled_from(LARGE_PRIMES)),
)


@st.composite
def rational_matrices(draw):
    """Tall, wide, rank-deficient and zero-row matrices, some entries over
    large coprime denominators."""
    ncols = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(matrix_entries, min_size=ncols, max_size=ncols), max_size=6))
    if rows:
        for _ in range(draw(st.integers(0, 2))):  # dependent rows
            i, j = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
            c = draw(st.sampled_from([F(1), F(-2), F(1, 3), F(1, LARGE_PRIMES[0])]))
            rows.append([c * x + y for x, y in zip(rows[i], rows[j])])
    for _ in range(draw(st.integers(0, 2))):  # zero rows
        rows.insert(draw(st.integers(0, len(rows))), [F(0)] * ncols)
    return rows


@given(rational_matrices())
def test_rref_rank_and_nullspace_match_the_fraction_elimination(m):
    rows, pivots = fraction_rref(m)
    assert sc.rref(m) == (rows, pivots)
    assert sc.rank(m) == len(pivots)
    free = [c for c in range(len(m[0]) if m else 0) if c not in pivots]
    want = []
    for f in free:
        v = [F(0)] * len(m[0])
        v[f] = F(1)
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        want.append(tuple(v))
    if not m:  # no rows, so no width to take the kernel in
        with pytest.raises(ValueError, match="width is unknown"):
            nullspace(m)
    else:
        assert nullspace(m) == want


# ---------------------------------------------------------------------------
# determinants


def test_det_identity():
    assert det_poly([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_det_symbolic_2x2():
    a, b, c, d = (Poly.var(x) for x in "abcd")
    assert det_poly([[a, b], [c, d]]) == a * d - b * c


def test_det_heisenberg5_generic_phi_is_zero_polynomial():
    # Bareiss on the generic Phi over Z^1 x Z^2; exists_cosymplectic itself
    # answers H5 by the common-kernel certificate without this determinant
    from coslie.catalog import heisenberg
    from coslie.cosymplectic import _span_forms, phi_map
    from coslie.exterior import cocycle_spaces

    L = heisenberg(2)
    z1, z2 = cocycle_spaces(L)
    alpha, omega = _span_forms(
        L.dim, z1, z2,
        [Poly.var(f"s{i + 1}") for i in range(len(z1))],
        [Poly.var(f"t{j + 1}") for j in range(len(z2))],
    )
    assert any(isinstance(x, Poly) and x.variables for x in alpha.coeffs)
    assert not det_poly(phi_map(L, alpha, omega))


@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(
            st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
)
def test_bareiss_agrees_with_cofactor_on_rational_matrices(m):
    assert det_poly([row[:] for row in m]) == cofactor_det(m)


@st.composite
def mixed_det_matrices(draw):
    """(m, symbolic): a square matrix, size 1-4, each rational row over its
    own denominator, some diagonal entries zero so that the elimination
    must swap rows, and maybe one row of Polys in x with an x in it."""
    n = draw(st.integers(1, 4))
    ints = st.integers(-6, 6)
    m = []
    for _ in range(n):
        den = draw(st.sampled_from([1, 2, 3, 5, 7]))
        m.append([F(draw(ints), den) for _ in range(n)])
    for i in range(n):
        if draw(st.booleans()):
            m[i][i] = F(0)
    symbolic = draw(st.booleans())
    if symbolic:
        x = Poly.var("x")
        k, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[k] = [draw(rationals) * x + draw(rationals) for _ in range(n)]
        m[k][j] = x + draw(rationals)
    return m, symbolic


@given(mixed_det_matrices())
def test_bareiss_on_ring_rows_agrees_with_cofactor(case):
    m, symbolic = case
    det, want = det_poly([row[:] for row in m]), cofactor_det(m)
    assert det == want
    if not symbolic:
        assert type(det) is F
    # a constant determinant is a Fraction, a shortcut's zero included
    assert isinstance(det, Poly) == isinstance(want, Poly)


@pytest.mark.parametrize("prev", [2, -2])
def test_integer_row_step_refuses_a_row_that_prev_does_not_divide(prev):
    # piv * row - f * top = [0, 2, 1, -1]: the last two floor quotients err
    # on the same side, so their errors cannot cancel in the row sum
    top, row = [1, 0, 0, 0], [0, 2, 1, -1]
    with pytest.raises(InexactDivision):
        sc._int_step(row, top, 1, 0, prev)
    assert sc._int_step([0, 2, 4, -6], top, 1, 0, prev) == [0, 2 // prev, 4 // prev, -6 // prev]


@given(
    st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=1, max_size=6),
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.sampled_from([1, -1, 2, -2, 3, -6, 7]),
)
def test_integer_row_step_matches_the_entrywise_quotients(pairs, piv, f, prev):
    row, top = (list(t) for t in zip(*pairs))
    v = [piv * x - f * y for x, y in pairs]
    if all(x % prev == 0 for x in v):
        assert sc._int_step(row, top, piv, f, prev) == [sc._exact_quot(x, prev) for x in v]
    else:
        with pytest.raises(InexactDivision):
            sc._int_step(row, top, piv, f, prev)


def test_bareiss_agrees_with_cofactor_symbolic():
    m = [[Poly.var(f"x{i}{j}") for j in range(4)] for i in range(4)]
    assert det_poly([row[:] for row in m]) == cofactor_det(m)


# ---------------------------------------------------------------------------
# evaluation


def test_poly_eval_examples():
    a, b, c, d = (Poly.var(x) for x in "abcd")
    p = a * d - b * c
    assert poly_eval(p, {"a": F(1), "b": F(0), "c": F(0), "d": F(1)}) == 1

    a23, a4, a15, a5 = (Poly.var(x) for x in ("a23", "a4", "a15", "a5"))
    q = a23 * (a4 * a15 + a5 * a23)
    assert poly_eval(q, {"a23": F(1), "a4": F(1), "a15": F(1), "a5": F(0)}) == 1

    assert poly_eval(F(0), {}) == 0


def test_poly_eval_missing_variable():
    with pytest.raises(MissingVariable):
        poly_eval(Poly.var("a"), {})


small_polys = st.builds(
    lambda terms: Poly(
        ("x", "y"),
        {(e1, e2): F(c) for (e1, e2, c) in terms},
    ),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-4, 4)),
        max_size=4,
    ),
)


@given(small_polys, small_polys, rationals, rationals)
def test_poly_eval_is_a_ring_homomorphism(p, q, x, y):
    at = {"x": x, "y": y}
    assert poly_eval(p + q, at) == poly_eval(p, at) + poly_eval(q, at)
    assert poly_eval(p * q, at) == poly_eval(p, at) * poly_eval(q, at)


# ---------------------------------------------------------------------------
# canonical form, quotients, solving


def test_poly_printing_is_graded_lex_and_stable():
    a, b = Poly.var("a"), Poly.var("b")
    p = b * b - a * 2 + 3
    assert str(p) == "b^2 - 2*a + 3"
    q = 3 + b * b - 2 * a
    assert str(q) == str(p)
    assert F(0) * a == F(0)
    assert str(Poly((), {})) == "0"


def test_unused_variables_are_pruned_for_equality():
    p = Poly(("a", "b"), {(1, 0): F(1)})
    q = Poly(("a",), {(1,): F(1)})
    assert p == q


def assert_canonical(r):
    """A Fraction, or a Poly with at least one variable: sorted names, each
    used; only nonzero Fraction coefficients; and the same value and hash
    as the validating constructor gives."""
    if type(r) is F:
        return
    assert isinstance(r, Poly) and r.variables
    assert list(r.variables) == sorted(set(r.variables))
    assert all(len(e) == len(r.variables) for e in r.terms)
    assert all(any(e[i] for e in r.terms) for i in range(len(r.variables)))
    assert all(type(c) is F and c != 0 for c in r.terms.values())
    fresh = Poly(r.variables, r.terms)
    assert (fresh.variables, fresh.terms, hash(fresh)) == (r.variables, r.terms, hash(r))


# names out of order, which the validating constructor sorts; with
# small_polys they make operands on different variables
unsorted_polys = st.builds(
    lambda terms: Poly(("y", "a"), {(e1, e2): F(c) for (e1, e2, c) in terms}),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-4, 4)), max_size=4),
)
any_polys = st.one_of(small_polys, unsorted_polys)


@given(any_polys, any_polys, rationals)
def test_arithmetic_results_are_canonical(p, q, c):
    results = [
        p + q, p - q, p * q, -p, p * c, c * p, p + c, p - c, c - p,
        p - p, (p + q) - q, (p * q) - (q * p), p * 0, -(p - p),
    ]
    if q:
        results += [ratfn(p * q, q), ratfn(q, q)]
        assert results[-2] == p and results[-1] == 1
    for r in results:
        assert_canonical(r)
    assert (p + q) - q == p and p - p == 0 and p * q == q * p
    # adding a rational zero to a Poly changes nothing, and builds nothing either
    if isinstance(p, Poly):
        assert p + 0 is p and p - F(0) is p


def assert_one_representation(r):
    """A Fraction, a Poly with at least one variable, or a RatFn with such a
    Poly as denominator and a Fraction or such a Poly as numerator."""
    if isinstance(r, RatFn):
        assert type(r.den) is Poly and r.den.variables, r
        r = r.num
    assert type(r) is F or (type(r) is Poly and r.variables), r


# Poly(...) as written by hand: names in any order, int and zero
# coefficients, a name no term uses, and terms that may leave a constant
raw_polys = st.builds(
    lambda names, terms: Poly(names, dict(terms)),
    st.permutations(("x", "y", "z")),
    st.lists(
        st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2), st.just(0)), st.integers(-2, 2)),
        max_size=4,
    ),
)
poly_values = st.one_of(rationals, raw_polys, any_polys)
mixed_values = st.one_of(
    poly_values,
    st.tuples(poly_values, poly_values).filter(lambda t: t[1]).map(lambda t: ratfn(*t)),
)


@given(st.lists(poly_values, min_size=4, max_size=4), mixed_values, mixed_values, rationals)
def test_every_result_has_one_representation(ps, a, b, c):
    # no constructor, operator or function of scalars leaves a constant as
    # a Poly, or a rational as the denominator of a RatFn
    p, q = ps[:2]
    at = {"x": c}
    results = [*ps, a, b, a + b, a - b, a * b, -a, a + c, c - a, a * c, c * a, p ** 0, p ** 2]
    for v in (p, a, b):
        try:
            results.append(sc.scalar_subs(v, at))
        except ZeroDivisionError:  # the point is a root of the denominator
            assert isinstance(v, RatFn) and not sc.scalar_subs(v.den, at)
    results += [v.subs(at) for v in ps if isinstance(v, Poly)]
    if b:
        results += [a / b, c / b]
    if q:
        results += [ratfn(p, q), ratfn(c, q), ratfn(p * q, q)]
    m = [ps[:2], ps[2:]]
    det = det_poly([row[:] for row in m])
    results.append(det)
    if det:
        results += [x for xs in sc.solve_linear(m, [[c, p], [q, ps[3]]]) for x in xs]
    results += sc.quotients(*sc.common_denominator([p, a, b, c]))
    for r in results:
        assert_one_representation(r)


def test_exact_division_and_failure():
    a, b = Poly.var("a"), Poly.var("b")
    assert (a * a - b * b).exact_div(a - b) == a + b
    with pytest.raises(InexactDivision):
        (a * a + b).exact_div(a - b)


def test_ratfn_normalization_and_equality():
    lam = Poly.var("lam")
    r = ratfn(F(1), lam * lam)
    assert r * lam * lam == sc.ONE
    assert ratfn(lam, lam * lam) == ratfn(F(1), lam)
    assert ratfn(lam * lam, lam) == lam
    assert ratfn(F(0), lam) == 0


def cramer_solve(a, bs):
    """The former ``solve_poly``: one Bareiss determinant per unknown over
    det(a), kept as the reference for ``solve_linear``."""
    n = len(a)
    d = det_poly(a)
    if not d:
        raise SingularSystem("singular linear system")

    def quot(num, den):
        if isinstance(den, F):
            return num * (F(1) / den)
        return ratfn(num if isinstance(num, Poly) else F(num), den)

    return [
        [
            quot(det_poly([[a[i][k] if k != j else b[i] for k in range(n)] for i in range(n)]), d)
            for j in range(n)
        ]
        for b in bs
    ]


def test_solve_poly_cramer():
    a = Poly.var("a")
    [x] = sc.solve_linear([[a, sc.ZERO], [sc.ZERO, a * a]], [[F(1), a]])
    assert x[0] == ratfn(F(1), a)
    assert x[1] == ratfn(F(1), a)
    with pytest.raises(SingularSystem):
        sc.solve_linear([[a, a], [a, a]], [[F(1), F(0)]])


def test_solve_rational_and_inverse():
    m = [[F(1), F(2)], [F(3), F(4)]]
    [x] = sc.solve_linear(m, [[F(1), F(1)]])
    assert sc.mat_vec(m, x) == (F(1), F(1))
    cols = sc.solve_linear(m, [[F(1), F(0)], [F(0), F(1)]])
    inv = [[cols[k][i] for k in range(2)] for i in range(2)]
    assert sc.mat_mul(m, inv) == [[F(1), F(0)], [F(0), F(1)]]


def test_solve_linear_matches_cramer_on_mixed_5x5():
    # mixed Fraction/Poly rows: the rational rows are cleared to ints, the
    # symbolic ones stay Polys, and every quotient is exact
    p, q = Poly.var("p"), Poly.var("q")
    a = [
        [p, F(1, 2), F(0), F(-3), F(1)],
        [F(2, 3), q, F(1), F(0), F(-1, 5)],
        [F(1), F(0), p * q - 1, F(2), F(0)],
        [F(0), F(-1), F(1, 7), F(3, 4), F(1)],
        [q + 2, F(0), F(1), F(1), p],
    ]
    bs = [
        [F(1), F(0), F(0), F(0), F(0)],
        [F(0), p, F(-1, 3), F(2), q * q],
        [F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11)],
    ]
    got, want = sc.solve_linear(a, bs), cramer_solve(a, bs)
    assert [[str(x) for x in v] for v in got] == [[str(x) for x in v] for v in want]
    for x, y, b in zip(got, want, bs):
        assert x == y
        assert sc.mat_vec(a, x) == sc.vec(b)
    # a symbolic row with pivot 1 is eliminated first; the rational rows
    # below it stay ints and then divide by the int pivots 3 and 28
    one = F(1)
    a = [
        [one, p, F(1, 2), F(0), p],
        [F(0), F(1), F(2), F(-1), F(3)],
        [F(0), F(0), F(3), F(1), F(2)],
        [F(0), F(0), F(1), F(5), F(-1)],
        [F(0), F(0), F(2, 7), F(-1), F(4)],
    ]
    bs = [[F(1), F(0), F(2), F(0), F(1)], [p, F(1), F(0), F(1, 2), F(0)]]
    got, want = sc.solve_linear(a, bs), cramer_solve(a, bs)
    assert [[str(x) for x in v] for v in got] == [[str(x) for x in v] for v in want]
    assert got == want


def test_exact_quotient_refuses_inexact_int_division():
    assert sc._exact_quot(84, 3) == 28
    with pytest.raises(InexactDivision):
        sc._exact_quot(85, 3)


def test_solve_linear_singular_system_raises():
    p = Poly.var("p")
    with pytest.raises(SingularSystem):
        sc.solve_fraction_free([[F(1), F(2), F(3)], [F(4), F(5), F(6)], [F(7), F(8), F(9)]], [])
    with pytest.raises(SingularSystem):
        sc.solve_linear([[p, F(1)], [p * p, p]], [[F(1), F(1)]])
    # the dependent column is the middle one, so the elimination skips it
    # and goes on to the later columns of a and to b
    with pytest.raises(SingularSystem):
        sc.solve_linear([[F(1), F(2), F(3)], [F(2), F(4), F(7)], [F(1), F(2), F(5)]], [[F(1), F(0), F(0)]])
    with pytest.raises(SingularSystem):
        sc.solve_linear([[p, p * p, F(1)], [F(1), p, F(0)], [F(0), F(0), p]], [[F(1), F(1), F(1)]])


def test_solve_linear_rows_with_large_coprime_denominators():
    primes = [1000003, 1000033, 1000037, 1000039]
    a = [
        [F(i + j + 1, primes[(i + j) % 4]) + (F(1) if i == j else F(0)) for j in range(4)]
        for i in range(4)
    ]
    bs = [[F(1, primes[i]) for i in range(4)], [F(primes[3 - i], 7) for i in range(4)]]
    xs = sc.solve_linear(a, bs)
    assert [sc.mat_vec(a, x) for x in xs] == [tuple(b) for b in bs]
    assert xs == cramer_solve(a, bs)


def test_solve_linear_refuses_ratfn_entries():
    # so does det_poly, on the same ring rows
    p = Poly.var("p")
    a = [[RatFn(F(1), p + 1), F(0)], [F(0), F(1)]]
    with pytest.raises(TypeError):
        sc.solve_linear(a, [[F(1), F(1)]])
    with pytest.raises(TypeError):
        det_poly(a)


@pytest.mark.parametrize(
    "entry", [Poly.var("p"), RatFn(F(1), Poly.var("p") + 1)], ids=["poly", "ratfn"]
)
@pytest.mark.parametrize("function", [sc.rref, sc.rank, nullspace], ids=lambda f: f.__name__)
def test_rational_elimination_refuses_parametric_entries(function, entry):
    # rref, rank and nullspace work over the rationals only
    with pytest.raises(ParametricUnsupported, match="substitute parameters first$"):
        function([[F(1), F(1, 2)], [F(0), entry]])


def test_common_denominator_round_trips():
    # ints over the lcm for rational values; Polys over the product of the
    # distinct RatFn denominators otherwise
    rational = [F(1, 6), F(-3, 4), F(0), F(5), (X + F(2, 9)) - X]
    nums, den = sc.common_denominator(rational)
    assert den == 36 and all(type(x) is int for x in nums)
    assert sc.quotients(nums, den) == (F(1, 6), F(-3, 4), F(0), F(5), F(2, 9))
    p, q = Poly.var("p"), Poly.var("q")
    mixed = [F(1, 2), p, RatFn(F(1), p + 1), RatFn(q, p * q + 1), RatFn(p, p + 1), F(0)]
    nums, den = sc.common_denominator(mixed)
    assert all(x == v for x, v in zip(sc.quotients(nums, den), mixed))


def seed_common_denominator(values):
    """``common_denominator`` as first written: every non-rational value
    multiplied by the denominator, even when that is ONE."""
    if all(type(v) is int for v in values):
        return list(values), 1
    values = [sc.as_scalar(v) for v in values]
    if all(isinstance(v, F) for v in values):
        den = lcm(*(v.denominator for v in values))
        return [v.numerator * (den // v.denominator) for v in values], den
    dens: list = []
    for v in values:
        if isinstance(v, RatFn) and v.den not in dens:
            dens.append(v.den)
    den = F(1)
    for d in dens:
        den = den * d
    return [
        v.num * den.exact_div(v.den) if isinstance(v, RatFn) else den * v for v in values
    ], den


polynomial_values = st.lists(
    st.one_of(
        rationals,
        st.tuples(rationals, rationals, st.integers(0, 2)).map(
            lambda t: t[0] * Poly.var("p") ** t[2] + t[1] * Poly.var("q")
        ),
    ),
    min_size=1,
    max_size=8,
)


@given(polynomial_values)
def test_common_denominator_without_quotients_keeps_the_values(values):
    # no RatFn: the denominator is ONE and the numerators are the
    # values themselves, as the multiplication by it gave them
    nums, den = sc.common_denominator(values)
    want, want_den = seed_common_denominator(values)
    assert den == want_den
    assert [(x, str(x)) for x in nums] == [(x, str(x)) for x in want]
    assert sc.quotients(nums, den) == sc.quotients(want, want_den)


square_systems = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=0, max_size=5),
    )
)


@given(square_systems)
def test_solve_linear_several_rhs_equals_column_by_column(system):
    m, bs = system
    if not det_poly([row[:] for row in m]):
        with pytest.raises(SingularSystem):
            sc.solve_linear(m, bs)
        return
    xs = sc.solve_linear(m, bs)
    assert xs == [sc.solve_linear(m, [b])[0] for b in bs]
    assert [sc.mat_vec(m, x) for x in xs] == [tuple(b) for b in bs]


def test_solve_linear_several_rhs_over_polynomials():
    a, b = Poly.var("a"), Poly.var("b")
    m = [[a, sc.ONE, sc.ZERO], [sc.ZERO, b, a], [sc.ONE, sc.ZERO, a * b]]
    bs = [
        [sc.ONE, sc.ZERO, sc.ZERO],
        [a, b, sc.ONE],
        [sc.ZERO, sc.ZERO, sc.ZERO],
        [a * a, F(-2), b],
    ]
    xs = sc.solve_linear(m, bs)
    assert len(xs) == len(bs)
    for x, rhs in zip(xs, bs):
        assert x == sc.solve_linear(m, [rhs])[0]
        assert sc.mat_vec(m, x) == tuple(rhs)
    with pytest.raises(SingularSystem):
        sc.solve_linear([[a, b], [a, b]], [[sc.ONE, sc.ZERO], [a, b]])
    with pytest.raises(SingularSystem):
        sc.solve_linear([[F(1), F(2)], [F(2), F(4)]], [[F(1), F(0)], [F(0), F(0)]])
