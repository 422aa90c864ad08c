from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from coslie import scalars as sc
from coslie.cosymplectic import LsaTable
from coslie.errors import DimensionMismatch, ParametricUnsupported
from coslie.exterior import OneForm, TwoForm
from coslie.lie_core import (
    LieAlgebra,
    LinearMap,
    ad,
    bracket,
    center,
    check_isomorphism,
    check_jacobi,
    derived_series,
    is_derivation,
    is_solvable,
)

vec3 = st.tuples(*([st.fractions(min_value=-4, max_value=4, max_denominator=3)] * 3))


def test_bracket_structure_examples(g31, g21):
    e = lambda k: sc.basis_vec(3, k - 1)
    assert bracket(g31, e(2), e(3)) == (F(1), F(0), F(0))
    assert bracket(g21, e(2), e(1)) == (F(-1), F(0), F(0))


@given(vec3, vec3)
def test_bracket_antisymmetry(x, y):
    L = LieAlgebra.from_table(3, {(1, 3): {1: 1}, (2, 3): {2: -1}})
    assert bracket(L, x, y) == tuple(-c for c in bracket(L, y, x))
    assert not any(bracket(L, x, x))


def test_bracket_dimension_mismatch(g31):
    with pytest.raises(DimensionMismatch):
        bracket(g31, (F(1), F(0)), sc.basis_vec(3, 0))


def test_jacobi_abelian_and_a56():
    assert check_jacobi(LieAlgebra.abelian(4)) == []
    a56 = LieAlgebra.from_table(
        5, {(2, 5): {1: 1}, (3, 5): {2: 1}, (3, 4): {1: 1}, (4, 5): {3: 1}}
    )
    assert check_jacobi(a56) == []


def test_jacobi_defect_is_reported():
    bad = LieAlgebra.from_table(3, {(1, 2): {1: 1}, (1, 3): {3: 1}})
    defects = check_jacobi(bad)
    assert len(defects) == 1
    i, j, k, vec = defects[0]
    assert (i, j, k) == (1, 2, 3)
    assert vec == (F(0), F(0), F(1))


def test_ad_examples(g31, g34):
    m = ad(g31, sc.basis_vec(3, 1))  # ad_{e2}: e3 -> e1
    assert m.column(2) == (F(1), F(0), F(0))
    assert not any(m.column(0)) and not any(m.column(1))

    z = ad(LieAlgebra.abelian(3), (F(1), F(2), F(3)))
    assert all(not any(z.column(i)) for i in range(3))

    m34 = ad(g34, sc.basis_vec(3, 2))  # ad_{e3}: e1 -> -e1, e2 -> e2
    assert m34.column(0) == (F(-1), F(0), F(0))
    assert m34.column(1) == (F(0), F(1), F(0))


@given(vec3, vec3)
def test_ad_is_a_homomorphism_into_matrices(x, y):
    L = LieAlgebra.from_table(3, {(2, 3): {1: 1}, (1, 3): {1: 1}})
    lhs = ad(L, bracket(L, x, y))
    rhs_m = [
        [
            sum(
                (ad(L, x).matrix[i][k] * ad(L, y).matrix[k][j] for k in range(3)),
                start=sc.ZERO,
            )
            - sum(
                (ad(L, y).matrix[i][k] * ad(L, x).matrix[k][j] for k in range(3)),
                start=sc.ZERO,
            )
            for j in range(3)
        ]
        for i in range(3)
    ]
    for i in range(3):
        for j in range(3):
            assert lhs.matrix[i][j] == rhs_m[i][j]


def test_center_examples(g21):
    h5 = LieAlgebra.from_table(5, {(1, 3): {5: 1}, (2, 4): {5: 1}})
    assert center(h5) == [(F(0),) * 4 + (F(1),)]
    assert len(center(LieAlgebra.abelian(4))) == 4
    assert center(g21) == [(F(0), F(0), F(1))]
    for c in center(h5):
        assert all(not any(ad(h5, c).column(i)) for i in range(5))


def test_center_refuses_parametric():
    # and so do the derived series and the solvability test
    L = LieAlgebra.from_table(3, {(1, 2): {1: sc.Poly.var("a")}})
    for function in (center, derived_series, is_solvable):
        with pytest.raises(ParametricUnsupported, match="substitute parameters first$"):
            function(L)


def test_derived_series_and_solvability(g31):
    chain = derived_series(g31)
    assert [len(b) for b in chain] == [3, 1, 0]
    assert is_solvable(g31)
    assert is_solvable(LieAlgebra.abelian(5))
    assert derived_series(LieAlgebra.abelian(5))[1] == []


def test_aff_extension_is_not_solvable():
    from coslie.catalog import get_entry

    entry = get_entry("aff(2,R)⋉<e7>")
    assert not is_solvable(entry.algebra({"lam": F(1)}))
    assert not is_solvable(entry.algebra({"lam": F(0)}))


def test_derivation_family_of_the_base_example(g21, g31):
    # phi(e1) = a e1, phi(e2) = b e1 + c e3, phi(e3) = f e3
    a, b, c, f = F(2), F(3), F(-1), F(5)
    phi = LinearMap(3, 3, ((a, b, 0), (0, 0, 0), (0, c, f)))
    assert is_derivation(g21, phi) == []

    ident = LinearMap.identity(3)
    defects = is_derivation(g31, ident)
    assert len(defects) == 1
    i, j, vec = defects[0]
    assert (i, j) == (2, 3)
    assert vec == (F(-1), F(0), F(0))

    assert is_derivation(g31, LinearMap.zero(3)) == []


def test_isomorphism_identity_and_singular(g31):
    alpha = OneForm.dual(3, 2)
    omega = TwoForm.from_dict(3, {(1, 3): 1})
    rep = check_isomorphism(g31, g31, LinearMap.identity(3), alpha, alpha, omega, omega)
    assert rep.ok

    zero = LinearMap.zero(3)
    assert not check_isomorphism(g31, g31, zero).ok


def test_isomorphism_witness_normalizes_omega(g34):
    # pullback of a12 e^{12} + a13 e^{13} + a23 e^{23} at (2, 1, 3) to e^{12}
    a12, a13, a23 = F(2), F(1), F(3)
    M = LinearMap.from_columns(
        [
            (F(1), F(0), F(0)),
            (F(0), F(1) / a12, F(0)),
            (a23 / a12, -a13 / a12, F(1)),
        ]
    )
    lam = F(5)
    alpha = OneForm.from_dict(3, {3: lam})
    omega1 = TwoForm.from_dict(3, {(1, 2): 1})
    omega2 = TwoForm.from_dict(3, {(1, 2): a12, (1, 3): a13, (2, 3): a23})
    rep = check_isomorphism(g34, g34, M, alpha, alpha, omega1, omega2)
    assert rep.ok


def test_isomorphism_detects_bracket_defect(g31, g21):
    rep = check_isomorphism(g31, g21, LinearMap.identity(3))
    assert not rep.ok
    assert rep.bracket_defects


def test_a_failing_isomorphism_names_each_failure(g31, g21):
    alpha = OneForm.dual(3, 2)
    omega = TwoForm.from_dict(3, {(1, 3): 1})
    rep = check_isomorphism(g31, g31, LinearMap.zero(3), alpha, alpha, omega, omega)
    assert (rep.invertible, rep.bracket_defects, rep.ok) == (False, [], False)
    assert rep.alpha_defect == (F(0), F(-1), F(0))
    assert rep.omega_defects == [(1, 3, F(-1))]
    assert str(rep) == "map not invertible; alpha pullback mismatch; omega pullback mismatch at [(1, 3)]"
    rep = check_isomorphism(g31, g21, LinearMap.identity(3))
    assert rep.bracket_defects == [(1, 2, (F(-1), F(0), F(0))), (2, 3, (F(1), F(0), F(0)))]
    assert str(rep) == "bracket defects at [(1, 2), (2, 3)]"
    swap = LinearMap.from_columns([(0, 1, 0), (1, 0, 0), (0, 0, 1)])
    rep = check_isomorphism(g31, g31, swap, alpha, alpha, omega, omega)
    assert rep.bracket_defects == [(1, 3, (F(-1), F(0), F(0))), (2, 3, (F(0), F(1), F(0)))]
    assert rep.alpha_defect == (F(1), F(-1), F(0))
    assert rep.omega_defects == [(1, 3, F(-1)), (2, 3, F(1))]
    assert str(rep) == (
        "bracket defects at [(1, 3), (2, 3)]; alpha pullback mismatch; "
        "omega pullback mismatch at [(1, 3), (2, 3)]"
    )


@pytest.mark.parametrize(
    "build, named",
    [
        (lambda: LieAlgebra.from_table(3, {(1, 2): {0: 1}}), "bracket component 0 "),
        (lambda: LieAlgebra.from_table(3, {(1, 2): {4: 1}}), "bracket component 4 "),
        (lambda: LieAlgebra.from_table(3, {(0, 2): {1: 1}}), "bracket index 0 "),
        (lambda: LieAlgebra.from_table(3, {(1, 4): {1: 1}}), "bracket index 4 "),
        (lambda: OneForm.from_dict(3, {0: 1}), "one-form index 0 "),
        (lambda: OneForm.from_dict(3, {4: 1}), "one-form index 4 "),
        (lambda: OneForm.dual(3, 0), "one-form index 0 "),
        (lambda: OneForm.dual(3, 4), "one-form index 4 "),
        (lambda: LsaTable.from_dict(2, {(1, 2): {0: 1}}), "product index 0 "),
        (lambda: LsaTable.from_dict(2, {(0, 1): {1: 1}}), "product index 0 "),
        (lambda: LsaTable.from_dict(2, {(1, 3): {}}), "product index 3 "),
        (lambda: LinearMap.from_columns([(1, 2), (1, 2, 3)]), "column 2 has 3 entries"),
        (lambda: LinearMap.from_columns([(1, 2, 3), (1, 2)]), "column 2 has 2 entries"),
        (lambda: LinearMap.from_columns([]), "at least one column"),
        (lambda: LieAlgebra.from_table(3, {(2, 1): {3: 1}}), r"bracket index pair \(2, 1\) "),
        (lambda: TwoForm.from_dict(3, {(0, 1): 1}), "two-form index 0 "),
        (lambda: TwoForm.from_dict(3, {(1, 4): 1}), "two-form index 4 "),
        (lambda: TwoForm.from_dict(3, {(3, 2): 1}), r"two-form index pair \(3, 2\) "),
    ],
)
def test_one_based_constructors_name_an_index_out_of_range(build, named):
    # an index of 0 must not wrap to the last slot, nor one above dim raise
    # a bare IndexError, nor a column of another length lose or miss entries
    with pytest.raises(DimensionMismatch, match=named):
        build()


E12_3, E12_2 = TwoForm.from_dict(3, {(1, 2): 1}), TwoForm.from_dict(2, {(1, 2): 1})
E1_3, E1_2 = OneForm.dual(3, 1), OneForm.dual(2, 1)


@pytest.mark.parametrize(
    "forms",
    [(None, None, E12_3, E12_2), (None, None, E12_2, E12_3), (E1_2, E1_3), (E1_3, E1_2)],
    ids=["omega2", "omega1", "alpha1", "alpha2"],
)
def test_check_isomorphism_refuses_forms_of_another_dimension(forms):
    # a form of dimension 2 against [e1, e2] = e1 in dimension 3: the omega
    # pullback must not truncate it, nor the alpha pullback call it a mismatch
    L = LieAlgebra.from_table(3, {(1, 2): {1: 1}})
    with pytest.raises(DimensionMismatch, match="equal dimensions"):
        check_isomorphism(L, L, LinearMap.identity(3), *forms)
