from __future__ import annotations

import random
from fractions import Fraction as F

import pytest

from coslie import scalars as sc
from coslie.cosymplectic import (
    CosymplecticStructure,
    SymplecticPair,
    to_symplectic,
    validate,
)
from coslie.errors import ConditionsFail, DimensionMismatch
from coslie.extensions import (
    ExtensionData,
    assemble_extension,
    construct_A,
    construct_B,
    construct_C,
    double_extend,
    form_twist,
    ist_check,
    ist_component_check,
    prop_conditions,
)
from coslie.exterior import OneForm, TwoForm
from coslie.lie_core import (
    LieAlgebra,
    LinearMap,
    check_jacobi,
)

import pairwise as pw

GBAR = LieAlgebra.from_table(3, {(1, 2): {1: 1}})
ABAR = OneForm.dual(3, 3)
OBAR = TwoForm.from_dict(3, {(1, 2): 1})


def phi_mat(a, b, c, f):
    # phi(e1) = a e1, phi(e2) = b e1 + c e3, phi(e3) = f e3
    return LinearMap(3, 3, ((a, b, 0), (0, 0, 0), (0, c, f)))


def data_A(b, f, lam3, z):
    return ExtensionData(
        phi_mat(0, b, 0, f),
        OneForm.from_dict(3, {3: lam3}),
        (F(0), F(0), z),
        -f,
        TwoForm.zero(3),
    )


# ---------------------------------------------------------------------------
# double_extend


def test_double_extend_reproduces_the_first_worked_example():
    b, f, lam3, z = F(1), F(1), F(1), F(1)
    L = double_extend(GBAR, data_A(b, f, lam3, z))
    assert L.dim == 5
    assert L.brackets[(0, 1)] == (F(1), F(0), F(0), F(0), F(0))
    # stored as [e_i, d]; printed form is [e4, e2] = b e1 etc.
    assert L.brackets[(1, 3)] == (-b, F(0), F(0), F(0), F(0))
    assert L.brackets[(2, 3)] == (F(0), F(0), -f, F(0), -lam3)
    assert L.brackets[(3, 4)] == (F(0), F(0), z, F(0), -f)
    assert check_jacobi(L) == []


def test_double_extend_trivial_data_gives_abelian():
    L = double_extend(LieAlgebra.abelian(2), ExtensionData.zero(2))
    assert L.dim == 4 and L.brackets == {}


def test_double_extend_rejects_non_derivation():
    g31 = LieAlgebra.from_table(3, {(2, 3): {1: 1}})
    bad = ExtensionData(
        LinearMap.identity(3), OneForm.zero(3), sc.zero_vec(3), sc.ZERO, TwoForm.zero(3)
    )
    with pytest.raises(ConditionsFail) as exc:
        double_extend(g31, bad)
    assert any("partial(phi)" in f for f in exc.value.failures)


# ---------------------------------------------------------------------------
# i.s.t. checks


def test_partial_phi_and_form_twist_worked_values():
    from coslie.extensions import partial_phi

    a, b, c, f = F(2), F(3), F(5), F(7)
    phi = phi_mat(a, b, c, f)
    # the derivation family of the base has zero defect
    assert all(not any(v) for v in partial_phi(GBAR, phi).values())
    # obar_phi picks up exactly the diagonal coefficient on e^{12}
    twist = form_twist(OBAR, phi)
    assert twist == TwoForm.from_dict(3, {(1, 2): a})
    # and twisting again squares it
    assert form_twist(twist, phi) == TwoForm.from_dict(3, {(1, 2): a * a})


def test_ist_check_examples():
    flat = SymplecticPair(LieAlgebra.abelian(2), TwoForm.from_dict(2, {(1, 2): 1}))
    assert ist_check(flat, LinearMap.zero(2))
    assert ist_check(flat, LinearMap(2, 2, ((1, 0), (0, -1))))
    assert not ist_check(flat, LinearMap.identity(2))


@pytest.mark.parametrize(
    "phi",
    [
        LinearMap.identity(3),
        LinearMap.identity(1),
        LinearMap(2, 3, ((1, 0), (0, 1), (0, 0))),
        LinearMap(3, 2, ((1, 0, 0), (0, 1, 0))),
    ],
    ids=["larger", "smaller", "taller", "wider"],
)
def test_form_twist_needs_an_endomorphism_of_the_form_space(phi):
    # a larger map once gave the twist of its top-left block, a smaller one
    # an IndexError
    flat = SymplecticPair(LieAlgebra.abelian(2), TwoForm.from_dict(2, {(1, 2): 1}))
    with pytest.raises(DimensionMismatch):
        form_twist(flat.omega, phi)
    with pytest.raises(DimensionMismatch):
        ist_check(flat, phi)


def test_ist_component_check_worked_data():
    rep = ist_component_check(GBAR, ABAR, OBAR, data_A(F(2), F(1), F(1), F(3)))
    assert rep.ok and rep.direct and rep.agree

    rep0 = ist_component_check(GBAR, ABAR, OBAR, ExtensionData.zero(3))
    assert rep0.ok and rep0.direct and rep0.agree


def test_ist_component_check_requires_cosymplectic_base():
    from coslie.errors import NotCosymplectic
    from coslie.exterior import OneForm as OF

    with pytest.raises(NotCosymplectic):
        ist_component_check(GBAR, OF.dual(3, 1), OBAR, ExtensionData.zero(3))


def test_ist_component_check_t_violation_fails_both_routes():
    E = data_A(F(1), F(1), F(1), F(1))
    bad = ExtensionData(E.phi, E.lam, E.v, E.t + 1, E.theta)
    rep = ist_component_check(GBAR, ABAR, OBAR, bad)
    assert rep.failed() == ["iv"]
    assert not rep.direct
    assert rep.agree


# ---------------------------------------------------------------------------
# equivalence suites


def random_extension(rng, n) -> ExtensionData:
    rnd = lambda: F(rng.randint(-2, 2))
    phi = LinearMap(n, n, tuple(tuple(rnd() for _ in range(n)) for _ in range(n)))
    lam = OneForm(n, tuple(rnd() for _ in range(n)))
    v = tuple(rnd() for _ in range(n))
    theta = TwoForm(n, {(i, j): rnd() for i in range(n) for j in range(i + 1, n)})
    return ExtensionData(phi, lam, v, rnd(), theta)


def test_extension_conditions_iff_jacobi_200_trials():
    rng = random.Random(60901)
    bases = [
        GBAR,
        LieAlgebra.abelian(3),
        LieAlgebra.from_table(3, {(2, 3): {1: 1}}),
        LieAlgebra.from_table(2, {(1, 2): {1: 1}}),
    ]
    checked = 0
    holds_seen = 0
    while checked < 200:
        base = bases[checked % len(bases)]
        if checked % 10 == 0:
            E = ExtensionData.zero(base.dim)  # conditions hold
        elif checked % 10 == 5 and base.dim == 3 and (1, 2) in base.brackets:
            E = data_A(F(1), F(2), F(1), F(1))  # structured, conditions hold
        else:
            E = random_extension(rng, base.dim)
        failures = prop_conditions(base, E)
        jacobi = check_jacobi(assemble_extension(base, E))
        assert (not failures) == (not jacobi), (checked, failures, jacobi)
        if not failures:
            holds_seen += 1
        checked += 1
    assert holds_seen >= 20  # both sides of the equivalence were exercised


def structured_ist_data(rng) -> ExtensionData:
    """Data assembled from the componentwise formulas on (GBAR, ABAR, OBAR):
    a traceless block on ker(alpha), free kernel components, and lambda, v,
    t derived from phi.  Always an i.s.t. of the symplectization."""
    rnd = lambda: F(rng.randint(-3, 3))
    p, q, r = rnd(), rnd(), rnd()
    s1, s2 = rnd(), rnd()
    u1, u2, u3 = rnd(), rnd(), rnd()
    w, v3 = rnd(), rnd()
    phi = LinearMap(3, 3, ((p, q, u1), (r, -p, u2), (s1, s2, u3)))
    lam = OneForm(3, (u2, -u1, w))
    v = (s2, -s1, v3)
    return ExtensionData(phi, lam, v, -u3, TwoForm.zero(3))


def test_ist_components_iff_direct_200_trials():
    rng = random.Random(424242)
    bases = [
        (GBAR, ABAR, OBAR),
        (LieAlgebra.abelian(3), ABAR, OBAR),
        (
            LieAlgebra.from_table(3, {(2, 3): {1: 1}}),
            OneForm.dual(3, 2),
            TwoForm.from_dict(3, {(1, 3): 1}),
        ),
    ]
    checked = 0
    holds_seen = 0
    while checked < 200:
        if checked % 5 == 0:
            base, abar, obar = bases[0]
            E = structured_ist_data(rng) if checked % 10 else ExtensionData.zero(3)
        else:
            base, abar, obar = bases[checked % len(bases)]
            E = random_extension(rng, 3)
        rep = ist_component_check(base, abar, obar, E)
        assert rep.agree, (checked, rep.failed(), rep.direct)
        if rep.ok:
            holds_seen += 1
        checked += 1
    assert holds_seen >= 20


# ---------------------------------------------------------------------------
# the three constructions


def test_construct_A_reproduces_g1():
    b, f, lam3, z = F(1), F(1), F(1), F(1)
    res = construct_A(GBAR, ABAR, OBAR, data_A(b, f, lam3, z))
    S = res.structure
    assert S.algebra.brackets == {
        (0, 1): (F(1), F(0), F(0), F(0), F(0)),
        (1, 3): (F(-1), F(0), F(0), F(0), F(0)),
        (2, 3): (F(0), F(0), F(-1), F(0), F(-1)),
        (3, 4): (F(0), F(0), F(1), F(0), F(-1)),
    }
    assert S.alpha == OneForm.dual(5, 4)
    assert S.omega == TwoForm.from_dict(5, {(1, 2): 1, (3, 5): 1})
    assert S.reeb == sc.basis_vec(5, 3)
    assert pw.derived_dim(S.algebra) == 3


def test_construct_A_trivial_data_on_abelian_base():
    base = LieAlgebra.abelian(3)
    res = construct_A(base, ABAR, OBAR, ExtensionData.zero(3))
    assert res.algebra.brackets == {}
    assert validate(res.algebra, res.structure.alpha, res.structure.omega).ok


def test_construct_A_violation_fails_and_assembled_structure_fails():
    # phi(e3) with an e1-component breaks [phi(xi), xi] = 0
    phi = LinearMap(3, 3, ((0, 0, 1), (0, 0, 0), (0, 0, 0)))
    E = ExtensionData(phi, OneForm.zero(3), sc.zero_vec(3), sc.ZERO, TwoForm.zero(3))
    with pytest.raises(ConditionsFail):
        construct_A(GBAR, ABAR, OBAR, E)
    # assembling anyway: omega + abar ^ e^* is not closed on the extension
    L = assemble_extension(GBAR, E)
    omega = TwoForm.from_dict(5, {(1, 2): 1, (3, 5): 1})
    rep = validate(L, OneForm.dual(5, 4), omega)
    assert not rep.ok


@pytest.mark.parametrize(
    "G",
    [
        GBAR,
        LieAlgebra.abelian(2),
        LieAlgebra.from_table(3, {(1, 3): {1: 1}, (2, 3): {1: sc.Poly.var("a"), 2: 1}}),
    ],
    ids=["g21+g1", "abelian", "symbolic"],
)
def test_zero_extension_data_adds_no_bracket(G):
    # the assembly writes every bracket; LieAlgebra drops the zero ones
    L = assemble_extension(G, ExtensionData.zero(G.dim))
    assert L.dim == G.dim + 2
    assert L.brackets.keys() == G.brackets.keys()
    assert all(L.brackets[k] == v + (sc.ZERO, sc.ZERO) for k, v in G.brackets.items())


@pytest.mark.parametrize(
    "E",
    [
        data_A(F(1), F(1), F(1), F(1)),
        # t = 0 against -abar(phi(xi)) = -1: component (iv) fails
        ExtensionData(phi_mat(0, 0, 0, 1), OneForm.zero(3), sc.zero_vec(3), F(0), TwoForm.zero(3)),
    ],
    ids=["ist", "not-ist"],
)
def test_construct_A_raises_when_the_two_ist_tests_disagree(monkeypatch, E):
    # the component conditions and the direct test of the assembled map
    # decide the same question; construct_A pays for both and must read both
    import coslie.extensions as ext

    plain = ext.ist_check
    monkeypatch.setattr(ext, "ist_check", lambda P, D: not plain(P, D))
    with pytest.raises(AssertionError, match="disagree"):
        construct_A(GBAR, ABAR, OBAR, E)


def test_construct_B_reproduces_g2():
    a, t, b, lam2, lam3 = F(1), F(0), F(1), F(1), F(1)
    phi = phi_mat(a, b, 0, 0)
    lam = OneForm.from_dict(3, {1: a * a - t * a, 2: lam2, 3: lam3})
    theta = form_twist(OBAR, phi)
    E = ExtensionData(phi, lam, sc.zero_vec(3), t, theta)
    res = construct_B(GBAR, ABAR, OBAR, E, alpha_d=F(2))
    S = res.structure
    assert S.algebra.brackets == {
        (0, 1): (F(1), F(0), F(0), F(0), F(1)),
        (0, 3): (F(-1), F(0), F(0), F(0), F(-1)),
        (1, 3): (F(-1), F(0), F(0), F(0), F(-1)),
        (2, 3): (F(0), F(0), F(0), F(0), F(-1)),
    }
    assert S.alpha == OneForm.from_dict(5, {3: 1, 4: 2})
    assert S.omega == TwoForm.from_dict(5, {(1, 2): 1, (4, 5): 1})
    assert S.reeb == sc.basis_vec(5, 2)
    assert pw.derived_dim(S.algebra) <= 2


def test_construct_B_trivial():
    E = ExtensionData.zero(3)
    res = construct_B(GBAR, ABAR, OBAR, E)
    assert validate(res.algebra, res.structure.alpha, res.structure.omega).ok


def test_construct_B_rejects_nonvanishing_abar_phi():
    phi = phi_mat(0, 0, 1, 0)  # phi(e2) has an e3 component
    E = ExtensionData(phi, OneForm.zero(3), sc.zero_vec(3), sc.ZERO, form_twist(OBAR, phi))
    with pytest.raises(ConditionsFail) as exc:
        construct_B(GBAR, ABAR, OBAR, E)
    assert any("abar o phi" in f for f in exc.value.failures)


def test_construct_C_reproduces_g3():
    b, c, f, z = F(1), F(1), F(1), F(1)
    phi = phi_mat(0, b, c, f)
    res = construct_C(GBAR, ABAR, OBAR, phi, (F(0), F(0), z), alpha_d=F(2))
    S = res.structure
    assert S.algebra.brackets == {
        (0, 1): (F(1), F(0), F(0), F(0), F(0)),
        (1, 3): (-b, F(0), -c, F(0), -c),
        (2, 3): (F(0), F(0), -f, F(0), -f),
        (3, 4): (F(0), F(0), z, F(0), z),
    }
    assert S.alpha == OneForm.from_dict(5, {3: 1, 4: 2, 5: -1})
    assert S.omega == TwoForm.from_dict(5, {(1, 2): 1, (4, 5): 1})
    assert S.reeb == sc.basis_vec(5, 2)
    assert pw.derived_dim(S.algebra) <= 2


def test_construct_C_trivial_and_violation():
    res = construct_C(GBAR, ABAR, OBAR, LinearMap.zero(3), sc.zero_vec(3))
    assert validate(res.algebra, res.structure.alpha, res.structure.omega).ok

    # a != 0 makes obar_phi nonzero
    with pytest.raises(ConditionsFail) as exc:
        construct_C(GBAR, ABAR, OBAR, phi_mat(1, 0, 0, 0), sc.zero_vec(3))
    assert any("obar_phi" in f for f in exc.value.failures)


def test_derived_dimension_discriminator():
    res1 = construct_A(GBAR, ABAR, OBAR, data_A(F(1), F(1), F(1), F(1)))
    phiB = phi_mat(F(1), F(1), 0, 0)
    lamB = OneForm.from_dict(3, {1: F(1), 2: F(1), 3: F(1)})
    res2 = construct_B(
        GBAR, ABAR, OBAR,
        ExtensionData(phiB, lamB, sc.zero_vec(3), F(0), form_twist(OBAR, phiB)),
    )
    res3 = construct_C(GBAR, ABAR, OBAR, phi_mat(0, 1, 1, 1), (F(0), F(0), F(1)))
    d1_, d2_, d3_ = (pw.derived_dim(r.algebra) for r in (res1, res2, res3))
    assert d1_ == 3
    assert d2_ <= 2 and d3_ <= 2
    assert d1_ > d2_ and d1_ > d3_


def test_each_construction_validates_the_base_once(monkeypatch):
    # CosymplecticStructure.make is the only validation: each construction
    # validates the 3-dimensional base once and its 5-dimensional output once
    import coslie.cosymplectic as cs

    dims = []
    plain = cs.validate

    def counted(L, alpha, omega):
        dims.append(L.dim)
        return plain(L, alpha, omega)

    monkeypatch.setattr(cs, "validate", counted)
    construct_A(GBAR, ABAR, OBAR, data_A(F(1), F(1), F(1), F(1)))
    assert dims == [3, 5]
    dims.clear()
    phiB = phi_mat(F(1), F(1), 0, 0)
    lamB = OneForm.from_dict(3, {1: F(1), 2: F(1), 3: F(1)})
    construct_B(
        GBAR, ABAR, OBAR, ExtensionData(phiB, lamB, sc.zero_vec(3), F(0), form_twist(OBAR, phiB))
    )
    assert sorted(dims) == [3, 5]
    dims.clear()
    construct_C(GBAR, ABAR, OBAR, phi_mat(0, 1, 1, 1), (F(0), F(0), F(1)))
    assert sorted(dims) == [3, 5]


# ---------------------------------------------------------------------------
# exact failure lists

G34 = LieAlgebra.from_table(3, {(1, 3): {1: 1}, (2, 3): {2: -1}})  # cosymplectic with ABAR, OBAR
P = sc.Poly.var("p")


def data(phi=None, lam=None, v=None, t=0, theta=None) -> ExtensionData:
    return ExtensionData(
        phi or LinearMap.zero(3),
        lam or OneForm.zero(3),
        v or sc.zero_vec(3),
        t,
        theta or TwoForm.zero(3),
    )


def failures_of(construct, *args, **kwargs) -> list:
    with pytest.raises(ConditionsFail) as exc:
        construct(*args, **kwargs)
    return exc.value.failures


def test_prop_conditions_lists_the_pairs_of_condition_2():
    E = data(t=1, theta=TwoForm.from_dict(3, {(1, 3): 1}), lam=OneForm.dual(3, 1))
    assert prop_conditions(GBAR, E) == [
        "t theta - theta_phi != d(lambda) at (e1, e2)",
        "t theta - theta_phi != d(lambda) at (e1, e3)",
    ]
    e12 = TwoForm.from_dict(3, {(1, 2): 1})
    assert prop_conditions(GBAR, data(t=P, theta=e12)) == [
        "t theta - theta_phi != d(lambda) at (e1, e2)"
    ]
    assert prop_conditions(GBAR, data(t=P, theta=e12, lam=OneForm(3, (-P, 0, 0)))) == []


def test_prop_conditions_lists_the_first_witness_of_condition_3():
    assert prop_conditions(GBAR, data(v=sc.basis_vec(3, 0))) == ["v not central against e2"]
    E = data(v=(F(1), F(0), F(1)), theta=TwoForm.from_dict(3, {(2, 3): 1}))
    assert prop_conditions(GBAR, E) == [
        "partial(phi) != theta v at (e2, e3)",
        "v not central against e2",
        "v not in ker(theta) against e2",
    ]
    E = data(v=(0, 0, P), theta=TwoForm.from_dict(3, {(1, 3): 1}))
    assert prop_conditions(GBAR, E) == [
        "partial(phi) != theta v at (e1, e3)",
        "v not in ker(theta) against e1",
    ]


def test_construct_B_lists_each_failing_condition():
    assert failures_of(construct_B, GBAR, ABAR, OBAR, data(lam=OneForm.dual(3, 1))) == [
        "t obar_phi - obar_phiphi != d(lambda) at (e1, e2)"
    ]
    assert failures_of(construct_B, G34, ABAR, OBAR, data(lam=OneForm(3, (1, 1, 1)))) == [
        "t obar_phi - obar_phiphi != d(lambda) at (e1, e3)",
        "t obar_phi - obar_phiphi != d(lambda) at (e2, e3)",
    ]
    E = data(LinearMap.identity(3), OneForm(3, (1, 1, 1)), (1, 0, 0), 0, OBAR)
    assert failures_of(construct_B, G34, OneForm.dual(3, 1), OBAR, E) == [
        "v must be zero for this construction",
        "theta must equal obar_phi",
        "phi is not a derivation of the base",
        "abar o phi != 0",
        "t obar_phi - obar_phiphi != d(lambda) at (e1, e2)",
        "t obar_phi - obar_phiphi != d(lambda) at (e1, e3)",
        "t obar_phi - obar_phiphi != d(lambda) at (e2, e3)",
        "base triple is not cosymplectic",
    ]


def test_construct_A_lists_each_failing_condition():
    assert failures_of(construct_A, GBAR, ABAR, OBAR, data(theta=OBAR)) == [
        "theta must be zero for this construction"
    ]
    assert failures_of(construct_A, GBAR, ABAR, OBAR, data(v=sc.basis_vec(3, 0))) == [
        "extension data is not an i.s.t.: components ['iii']",
        "v is not central in the base",
    ]
    # phi(xi) = e2 and [h1, h2] = e1 on GBAR: obar(e1, e2) != 0
    e3_to_e2 = LinearMap(3, 3, ((0, 0, 0), (0, 0, 1), (0, 0, 0)))
    assert failures_of(
        construct_A, GBAR, ABAR, OBAR, data(e3_to_e2, OneForm.dual(3, 1))
    ) == [
        "phi is not a derivation of the base",
        "obar([h1, h2], phi(xi)) != 0",
    ]
    # phi(xi) = e1 + e2 on G34: [phi(xi), xi] = e1 - e2 pairs with h1 and
    # h2, and only the first is reported
    e3_to_e12 = LinearMap(3, 3, ((0, 0, 1), (0, 0, 1), (0, 0, 0)))
    assert failures_of(
        construct_A, G34, ABAR, OBAR, data(e3_to_e12, OneForm(3, (1, -1, 0)))
    ) == ["obar([phi(xi), xi], h1) != 0"]
    E = data(e3_to_e12, v=sc.basis_vec(3, 0), theta=OBAR)
    assert failures_of(construct_A, GBAR, ABAR, OBAR, E) == [
        "theta must be zero for this construction",
        "extension data is not an i.s.t.: components ['ii', 'iii']",
        "phi is not a derivation of the base",
        "v is not central in the base",
        "obar([h1, h2], phi(xi)) != 0",
    ]


def test_construct_C_lists_each_failing_condition():
    zero = sc.zero_vec(3)
    e1_to_e3 = LinearMap(3, 3, ((0, 0, 0), (0, 0, 0), (1, 0, 0)))
    assert failures_of(construct_C, GBAR, ABAR, OBAR, e1_to_e3, zero) == [
        "phi is not a derivation of the base",
        "abar(phi([e1, e2])) != 0",
    ]
    to_e3 = LinearMap(3, 3, ((0, 0, 0), (0, 0, 0), (1, 1, 0)))
    assert failures_of(construct_C, G34, ABAR, OBAR, to_e3, zero) == [
        "phi is not a derivation of the base",
        "abar(phi([e1, e3])) != 0",
        "abar(phi([e2, e3])) != 0",
    ]
    assert failures_of(construct_C, GBAR, ABAR, OBAR, LinearMap.zero(3), sc.basis_vec(3, 0)) == [
        "v is not central in the base",
        "v is not in ker(obar)",
    ]
    e13 = TwoForm.from_dict(3, {(1, 3): 1})
    assert failures_of(construct_C, GBAR, ABAR, e13, LinearMap.zero(3), (0, 0, 1)) == [
        "v is not in ker(obar)",
        "base triple is not cosymplectic",
    ]
    assert failures_of(
        construct_C, GBAR, OneForm.dual(3, 1), OBAR, LinearMap.identity(3), (1, 1, 1)
    ) == [
        "obar_phi != 0",
        "phi is not a derivation of the base",
        "abar(phi([e1, e2])) != 0",
        "v is not central in the base",
        "v is not in ker(obar)",
        "base triple is not cosymplectic",
    ]


def test_extension_data_of_another_dimension_is_a_dimension_mismatch():
    small = ExtensionData.zero(2)
    for build in (
        lambda: prop_conditions(GBAR, small),
        lambda: double_extend(GBAR, small),
        lambda: construct_A(GBAR, ABAR, OBAR, small),
        lambda: construct_B(GBAR, ABAR, OBAR, small),
        lambda: ist_component_check(GBAR, ABAR, OBAR, small),
    ):
        with pytest.raises(DimensionMismatch):
            build()
