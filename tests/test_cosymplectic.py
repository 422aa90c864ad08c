from __future__ import annotations

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction as F
from itertools import combinations, product
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from coslie import cosymplectic as cs
from coslie import scalars as sc
from coslie.catalog import get_entry, heisenberg, instantiate, list_entries
from coslie.cosymplectic import (
    CosymplecticStructure,
    LsaTable,
    SymplecticPair,
    _lsa_via_parts,
    _lsa_via_phi,
    biinvariance,
    cosymplectic_lsa,
    deriv_identity_defect,
    exists_cosymplectic,
    from_symplectic_derivation,
    kernel_symplectic,
    left_symmetry_defect,
    phi_map,
    reeb,
    symplectic_lsa,
    to_symplectic,
    validate,
)
from coslie.errors import (
    DegenerateOmega,
    EvenDimension,
    NotDerivation,
    NotIst,
    SingularPhi,
)
from coslie.exterior import (
    OneForm,
    TwoForm,
    closed_numerators,
    cocycle_spaces,
    is_2cocycle,
    volume_coeff,
)
from coslie.lie_core import LieAlgebra, LinearMap, check_isomorphism
from coslie.scalars import Poly, ratfn

import pairwise as pw

E3 = lambda k: OneForm.dual(3, k)
W = lambda d: TwoForm.from_dict(3, d)


def make(L, alpha, omega):
    return CosymplecticStructure.make(L, alpha, omega)


def validated_catalog_structures():
    """Deterministic list of (name, structure) for every catalog entry that
    yields a validated instance, across dimensions 3, 5 and 7."""
    out = []
    for name in list_entries():
        entry = get_entry(name)
        if entry.kind == "heisenberg":
            continue
        if entry.kind == "aff":
            from coslie.catalog import aff_corrected_algebra, AFF_ALPHA, AFF_OMEGA

            out.append((name + "@lam=0", make(entry.algebra({"lam": F(0)}), AFF_ALPHA, AFF_OMEGA)))
            out.append(
                (name + "@corrected-lam=1", make(aff_corrected_algebra(F(1)), AFF_ALPHA, AFF_OMEGA))
            )
            continue
        L, alpha, omega = instantiate(name, entry.sample)
        rep = validate(L, alpha, omega)
        if rep.ok:
            out.append((name, make(L, alpha, omega)))
    return out


STRUCTURES = validated_catalog_structures()


# ---------------------------------------------------------------------------
# Phi and validation


def test_phi_map_example(g21):
    P = phi_map(g21, E3(3), W({(1, 2): 1}))
    assert [P[l][0] for l in range(3)] == [F(0), F(1), F(0)]   # Phi(e1) = e^2
    assert [P[l][1] for l in range(3)] == [F(-1), F(0), F(0)]  # Phi(e2) = -e^1
    assert [P[l][2] for l in range(3)] == [F(0), F(0), F(1)]   # Phi(e3) = e^3


def test_phi_zero_forms(g21):
    P = phi_map(g21, OneForm.zero(3), TwoForm.zero(3))
    assert all(x == 0 for row in P for x in row)


def test_phi_heisenberg_pairs_nothing_with_the_center():
    h5 = heisenberg(2)
    from coslie.exterior import cocycle_spaces

    z1, z2 = cocycle_spaces(h5)
    # any cocycle choice pairs the central element to zero
    for a in z1:
        assert not a.coeffs[4]
    for w in z2:
        assert all(not pw.value_basis(w, i, 4) for i in range(5))


def test_validate_examples(g21):
    assert validate(g21, E3(3), W({(1, 2): 1})).ok
    bad = validate(g21, E3(1), W({(1, 2): 1}))
    assert not bad.ok and not bad.cocycle1
    assert validate(LieAlgebra.abelian(3), E3(3), W({(1, 2): 1})).ok
    with pytest.raises(EvenDimension):
        validate(LieAlgebra.abelian(4), OneForm.zero(4), TwoForm.zero(4))


def test_validate_parametric_returns_polynomial(g21):
    lam = Poly.var("lam")
    rep = validate(g21, OneForm(3, (sc.ZERO, sc.ZERO, lam)), W({(1, 2): 1}))
    assert rep.ok
    assert isinstance(rep.volume, Poly)
    assert rep.volume == lam


def test_reeb_examples(g21, g34):
    assert reeb(g21, E3(3), W({(1, 2): 1})) == (F(0), F(0), F(1))
    xi = reeb(g34, OneForm.from_dict(3, {3: F(2)}), W({(1, 2): 1}))
    assert xi == (F(0), F(0), F(1, 2))
    with pytest.raises(SingularPhi):
        reeb(g21, E3(3), TwoForm.zero(3))


def test_reeb_invariants_on_catalog():
    for name, S in STRUCTURES:
        assert pw.evaluate(S.alpha, S.reeb) == sc.ONE, name
        contracted = S.omega.contract(S.reeb)
        assert contracted.is_zero(), name


# ---------------------------------------------------------------------------
# Existence


def test_exists_h3_yes_h5_no():
    assert exists_cosymplectic(heisenberg(1)).exists
    res5 = exists_cosymplectic(heisenberg(2))
    assert not res5.exists and not res5.det


def test_exists_perfect_algebra_no(sl2):
    res = exists_cosymplectic(sl2)
    assert not res.exists
    assert res.z1_dim == 0


def test_exists_witness_validates(g31):
    res = exists_cosymplectic(g31)
    assert res.exists
    rep = validate(g31, res.alpha, res.omega)
    assert rep.ok


def test_exists_scales_to_large_cocycle_spaces():
    # abelian algebras have the largest possible cocycle spaces; the staged
    # witness search must settle these without touching the volume route
    for dim in (5, 7, 9, 11, 13, 15):
        L = LieAlgebra.abelian(dim)
        res = exists_cosymplectic(L)
        assert res.exists and res.det is None
        assert validate(L, res.alpha, res.omega).ok
    for n in (4, 5, 6):
        res = exists_cosymplectic(heisenberg(n))
        assert not res.exists and not res.det


def generic_forms(L):
    """The variables s_i, t_j and the generic (alpha, omega) over Z^1 x Z^2,
    built from the rows of ``closed_numerators`` by the decision's builder."""
    _, z1, p = closed_numerators(L, 1)
    pairs, z2, q = closed_numerators(L, 2)
    svars = [f"s{i + 1}" for i in range(len(z1))]
    tvars = [f"t{j + 1}" for j in range(len(z2))]
    a = cs._combination(z1, p, [Poly.var(v) for v in svars])
    w = cs._combination(z2, q, [Poly.var(v) for v in tvars])
    # the decision never sums over Z^1 = 0 (it is certified), but sl(2) is
    # one of the generic determinants checked here
    alpha = OneForm(L.dim, sc.quotients(*a)) if z1 else OneForm.zero(L.dim)
    omega = TwoForm(L.dim, dict(zip(pairs, sc.quotients(*w))))
    return svars, tvars, alpha, omega


def generic_det(L):
    """det Phi of the generic (alpha, omega), by Bareiss."""
    _, _, alpha, omega = generic_forms(L)
    return sc.det_poly(phi_map(L, alpha, omega))


def certified(L) -> bool:
    _, z1, p = closed_numerators(L, 1)
    pairs, z2, _ = closed_numerators(L, 2)
    return cs._phi_kernel_certificate(pairs, z1, p, z2)


def scaled_by_identity(k):
    """R^{2k} x| R with ad e_{2k+1} = id: no common kernel, yet every
    omega in Z^2 lies in the span of the e^{i, 2k+1}, so det Phi = 0."""
    d = 2 * k + 1
    return LieAlgebra.from_table(d, {(i, d): {i: -1} for i in range(1, d)})


R3_1 = scaled_by_identity(1)  # ad e3 = id


def test_phi_kernel_certificate_fires_only_on_zero_determinants(sl2, g31):
    for L in (heisenberg(2), heisenberg(3), heisenberg(4), sl2):
        assert certified(L)
        assert not generic_det(L)
        res = exists_cosymplectic(L)
        assert not res.exists and not res.det
    for L in (heisenberg(1), g31, LieAlgebra.abelian(3), LieAlgebra.abelian(5), R3_1):
        assert not certified(L)
    # R^{2k} x| R with ad = id has no common kernel, yet det Phi vanishes:
    # the volume polynomials decide "no"; k = 2 is R^4 x| R with ad e5 = id
    assert not generic_det(R3_1)
    for k in (1, 2, 3):
        L = scaled_by_identity(k)
        assert not certified(L)
        res = exists_cosymplectic(L)
        assert not res.exists and not res.det


def unpruned_certificate(dim, z1, z2) -> bool:
    """The common-kernel certificate from every row: Z^1's, then each
    omega's full skew matrix, zero and repeated rows included."""
    if not z1:
        return True
    rows = [list(a.coeffs) for a in z1]
    if not sc.nullspace(rows):
        return False
    for w in z2:
        rows += [[pw.value_basis(w, i, j) for j in range(dim)] for i in range(dim)]
    return bool(sc.nullspace(rows))


def seed_span_forms(dim, z1, z2, s, t) -> tuple:
    """(sum s_i z1_i, sum t_j z2_j) by Fraction sums over the forms of
    ``cocycle_spaces``: the builder the decision used before it read the
    numerator rows."""
    alpha = OneForm(
        dim,
        tuple(sum((si * a.coeffs[k] for si, a in zip(s, z1)), start=sc.ZERO) for k in range(dim)),
    )
    wc: dict = {}
    for tj, form in zip(t, z2):
        for pair, c in form.coeffs.items():
            wc[pair] = wc.get(pair, sc.ZERO) + tj * c
    return alpha, TwoForm(dim, wc)


def seed_exists(L) -> cs.ExistenceResult:
    """The decision on the Scalar forms of ``cocycle_spaces``: the unpruned
    certificate, ``phi_map`` and ``det_poly`` at each staged point, then the
    volume polynomials of the generic forms; the reference for the decision
    on numerator rows."""
    z1, z2 = cocycle_spaces(L)
    if unpruned_certificate(L.dim, z1, z2):
        return cs.ExistenceResult(False, sc.ZERO, len(z1), len(z2))
    svars = [f"s{i + 1}" for i in range(len(z1))]
    tvars = [f"t{j + 1}" for j in range(len(z2))]

    def found(assignment):
        s, t = [assignment[v] for v in svars], [assignment[v] for v in tvars]
        alpha, omega = seed_span_forms(L.dim, z1, z2, s, t)
        return cs.ExistenceResult(
            True, None, len(z1), len(z2), alpha, omega, dict(sorted(assignment.items()))
        )

    for assignment in cs._staged_assignments(svars + tvars):
        hit = found(assignment)
        if sc.det_poly(phi_map(L, hit.alpha, hit.omega)):
            return hit
    n = (L.dim - 1) // 2
    _, generic = seed_span_forms(L.dim, [], z2, [], [Poly.var(v) for v in tvars])
    for i, z in enumerate(z1):
        vol = volume_coeff(L, z, generic)
        if not vol:
            continue
        assignment = {v: sc.ONE if v == svars[i] else sc.ZERO for v in svars}
        for v in tvars:
            k = next(k for k in range(n + 1) if sc.scalar_subs(vol, {v: F(k)}))
            vol, assignment[v] = sc.scalar_subs(vol, {v: F(k)}), F(k)
        return found(assignment)
    return cs.ExistenceResult(False, sc.ZERO, len(z1), len(z2))


def test_pruned_certificate_rows_keep_the_verdict():
    from test_cli import EXISTS_INPUTS

    from coslie.algfile import parse_algebra

    algebras = {f"H_{2 * n + 1}": heisenberg(n) for n in range(2, 6)}
    for name in list_entries():
        entry = get_entry(name)
        if entry.kind != "heisenberg":
            L = entry.algebra(entry.struct_params)
            if not L.is_parametric() and L.dim % 2:
                algebras[name] = L
    algebras.update((name, parse_algebra(text).algebra) for name, text in EXISTS_INPUTS.items())
    # under a dense basis Z^1's echelon rows have entries in the pivot
    # slots, from which the certificate reads its basis of [g, g]
    rng = random.Random(34)
    for name, L in list(algebras.items()):
        algebras[f"{name}, dense basis"] = rebased(L, unimodular(rng, L.dim, True))
    verdicts = set()
    for name, L in algebras.items():
        z1, z2 = cocycle_spaces(L)
        got = certified(L)
        assert got == unpruned_certificate(L.dim, z1, z2), name
        verdicts.add(got)
    assert verdicts == {True, False}


def test_rational_witness_points_equal_substituted_generic_forms(g31):
    a51 = LieAlgebra.from_table(5, {(3, 5): {1: 1}, (4, 5): {2: 1}})
    for L in (g31, heisenberg(1), R3_1, LieAlgebra.abelian(5), a51):
        z1, z2 = cocycle_spaces(L)
        _, r1, p = closed_numerators(L, 1)
        pairs, r2, q = closed_numerators(L, 2)
        svars, tvars, alpha, omega = generic_forms(L)
        for n, point in enumerate(cs._staged_assignments(svars + tvars)):
            if n == 12:
                break
            s, t = [point[v] for v in svars], [point[v] for v in tvars]
            a = sc.quotients(*cs._combination(r1, p, s))
            w = TwoForm(L.dim, dict(zip(pairs, sc.quotients(*cs._combination(r2, q, t)))))
            assert a == alpha.subs(point).coeffs
            assert w.coeffs == omega.subs(point).coeffs
            assert (OneForm(L.dim, a), w) == seed_span_forms(L.dim, z1, z2, s, t)


def family_algebras():
    """(name, rational algebra) for each catalog family at its sample
    structure parameters, plus aff(2,R) x| <e7> at lam = 1."""
    algebras = []
    for name in list_entries():
        entry = get_entry(name)
        if entry.kind == "family":
            algebras.append((name, entry.algebra(entry.struct_params or None)))
    algebras.append(("aff", get_entry("aff(2,R)⋉<e7>").algebra({"lam": F(1)})))
    return algebras


def test_volume_route_finds_a_witness_when_staged_points_are_skipped(g31, monkeypatch):
    monkeypatch.setattr(cs, "_staged_assignments", lambda variables: iter(()))
    for name, L in [("g31", g31)] + family_algebras():
        res = exists_cosymplectic(L)
        assert res.exists and res.det is None, name
        assert validate(L, res.alpha, res.omega).ok, name
        values = {F(k) for k in range((L.dim - 1) // 2 + 1)}
        assert set(res.witness.values()) <= values, name


def test_volume_route_refuses_a_polynomial_above_the_degree_bound(g31, monkeypatch):
    # on g31, n = 1: a volume polynomial of total degree 2 breaks the bound
    # that makes the values {0, 1} enough
    monkeypatch.setattr(cs, "_staged_assignments", lambda variables: iter(()))
    monkeypatch.setattr(cs, "volume_coeff", lambda L, alpha, omega: Poly.var("t1") ** 2)
    with pytest.raises(AssertionError, match="degree"):
        exists_cosymplectic(g31)


def unimodular(rng, n, dense):
    """A change of basis of determinant +-1: a signed permutation, or
    dense, L U Q D with unit triangular L and U of entries -1, 0, 1."""
    entries = [rng.choice([-1, 0, 1]) if dense else 0 for _ in range(n * n)]
    perm = rng.sample(range(n), n)
    return dense_change(n, entries, perm, [F(rng.choice([-1, 1])) for _ in range(n)])


def plus_abelian(L, k):
    """L + R^k, the k new basis vectors central."""
    zeros = (sc.ZERO,) * k
    return LieAlgebra(L.dim + k, {ij: tuple(v) + zeros for ij, v in L.brackets.items()})


def test_the_decision_on_numerator_rows_equals_the_seed(sl2, g31, monkeypatch):
    from test_cli import EXISTS_INPUTS

    from coslie.algfile import parse_algebra

    rng = random.Random(34)
    algebras = [
        rebased(heisenberg(n), unimodular(rng, 2 * n + 1, dense))
        for n in range(1, 6)
        for dense in (False, True)
    ]
    for name in list_entries():
        entry = get_entry(name)
        if entry.kind == "family" and entry.dim == 5:
            L = entry.algebra(entry.struct_params or None)
            if not L.is_parametric():
                for k in (2, 4):
                    algebras.append(rebased(plus_abelian(L, k), unimodular(rng, 5 + k, True)))
    algebras += [LieAlgebra.abelian(d) for d in range(1, 14, 2)]
    algebras += [scaled_by_identity(k) for k in (1, 2, 3)] + [sl2]
    algebras += [parse_algebra(text).algebra for text in EXISTS_INPUTS.values()]
    answers = set()
    for L in algebras:
        res = exists_cosymplectic(L)
        # every field: exists, det, z1_dim, z2_dim, alpha, omega and witness
        assert res == seed_exists(L), L
        answers.add(res.exists)
    assert answers == {True, False}
    # the witnesses of the volume route, with the staged points skipped
    monkeypatch.setattr(cs, "_staged_assignments", lambda variables: iter(()))
    for name, L in [("g31", g31)] + family_algebras():
        res = exists_cosymplectic(L)
        assert res.exists and res == seed_exists(L), name


# ---------------------------------------------------------------------------
# Kernel reduction and the one-higher symplectic pair


def test_kernel_symplectic_examples(g31, g34):
    S = make(g31, E3(2), W({(1, 3): 1}))
    red = kernel_symplectic(S)
    assert red.pair.algebra.brackets == {}
    assert red.pair.omega.coeffs == {(0, 1): F(1)}
    assert red.deriv.column(1) == (F(1), F(0))  # e3 -> e1 in kept coordinates
    assert not any(red.deriv.column(0))

    S0 = make(LieAlgebra.abelian(3), E3(3), W({(1, 2): 1}))
    assert all(not any(kernel_symplectic(S0).deriv.column(i)) for i in range(2))

    S34 = make(g34, E3(3), W({(1, 2): 1}))
    D = kernel_symplectic(S34).deriv
    assert D.column(0) == (F(-1), F(0))
    assert D.column(1) == (F(0), F(1))


def test_from_symplectic_derivation_examples():
    fl = SymplecticPair(LieAlgebra.abelian(2), TwoForm.from_dict(2, {(1, 2): 1}))
    S = from_symplectic_derivation(fl, LinearMap.zero(2))
    assert S.algebra.brackets == {}
    assert S.alpha == OneForm.dual(3, 3)

    nil = from_symplectic_derivation(fl, LinearMap(2, 2, ((0, 1), (0, 0))))
    # bracket [xi, e2] = e1 with xi stored last: [e2, e3] = -e1
    assert nil.algebra.brackets == {(1, 2): (F(-1), F(0), F(0))}
    relabel = LinearMap.from_columns([(F(-1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))])
    g31 = LieAlgebra.from_table(3, {(2, 3): {1: 1}})
    assert check_isomorphism(nil.algebra, g31, relabel).ok


def test_from_symplectic_derivation_rejects_bad_maps():
    fl = SymplecticPair(LieAlgebra.abelian(2), TwoForm.from_dict(2, {(1, 2): 1}))
    with pytest.raises(NotIst):
        from_symplectic_derivation(fl, LinearMap.identity(2))
    hh = SymplecticPair(
        LieAlgebra.from_table(2, {(1, 2): {1: 1}}), TwoForm.from_dict(2, {(1, 2): 1})
    )
    not_deriv = LinearMap(2, 2, ((0, 0), (1, 0)))
    with pytest.raises(NotDerivation):
        from_symplectic_derivation(hh, not_deriv)


def test_roundtrip_on_dim3_catalog_entries():
    for name, S in STRUCTURES:
        if S.dim != 3:
            continue
        red = kernel_symplectic(S)
        rebuilt = from_symplectic_derivation(red.pair, red.deriv)
        M = LinearMap.from_columns(list(red.basis))
        rep = check_isomorphism(
            rebuilt.algebra, S.algebra, M, rebuilt.alpha, S.alpha, rebuilt.omega, S.omega
        )
        assert rep.ok, (name, str(rep))


def test_to_symplectic_example_and_equivalence(g21):
    pair = to_symplectic(g21, E3(3), W({(1, 2): 1}))
    assert pair.algebra.dim == 4
    assert pair.omega.coeffs == {(0, 1): F(1), (2, 3): F(1)}
    c2, det, ok = pair.validate()
    assert ok

    tiny = to_symplectic(LieAlgebra.abelian(1), OneForm.dual(1, 1), TwoForm.zero(1))
    assert tiny.omega.coeffs == {(0, 1): F(1)}
    assert tiny.validate()[2]

    # a non-cocycle alpha makes the output omega non-closed
    bad = to_symplectic(g21, E3(1), W({(1, 2): 1}))
    assert not is_2cocycle(bad.algebra, bad.omega)


def test_to_symplectic_equivalence_both_directions_on_catalog():
    for name, S in STRUCTURES:
        pair = to_symplectic(S.algebra, S.alpha, S.omega)
        assert pair.validate()[2], name
    # broken inputs: degenerate volume -> degenerate pair
    g21 = LieAlgebra.from_table(3, {(1, 2): {1: 1}})
    degenerate = to_symplectic(g21, E3(3), TwoForm.zero(3))
    c2, det, ok = degenerate.validate()
    assert c2 and not det and not ok
    # non-closed omega -> non-closed extension
    bad_omega = to_symplectic(g21, E3(3), W({(1, 3): 1}))
    assert not bad_omega.validate()[0]


# ---------------------------------------------------------------------------
# Left-symmetric products


def test_symplectic_lsa_examples():
    hh = SymplecticPair(
        LieAlgebra.from_table(2, {(1, 2): {1: 1}}), TwoForm.from_dict(2, {(1, 2): 1})
    )
    T = symplectic_lsa(hh)
    assert T.products[0][1] == (F(1), F(0))
    assert T.products[1][1] == (F(0), F(1))
    assert not any(T.products[0][0]) and not any(T.products[1][0])

    ab = SymplecticPair(LieAlgebra.abelian(2), TwoForm.from_dict(2, {(1, 2): 1}))
    Tz = symplectic_lsa(ab)
    assert all(not any(Tz.products[i][j]) for i in range(2) for j in range(2))

    with pytest.raises(DegenerateOmega):
        symplectic_lsa(SymplecticPair(LieAlgebra.abelian(2), TwoForm.zero(2)))


def test_symplectic_lsa_recovers_commutator():
    for name, S in STRUCTURES:
        red = kernel_symplectic(S)
        T = symplectic_lsa(red.pair)
        m = red.pair.algebra.dim
        for i in range(m):
            for j in range(m):
                lhs = sc.vec_sub(T.products[i][j], T.products[j][i])
                assert lhs == pw.bracket_basis(red.pair.algebra, i, j), name


def expected_table(dim, entries):
    return LsaTable.from_dict(dim, entries)


def test_cosymplectic_lsa_printed_tables_at_unit_scale(g31, g34, g35):
    S31 = make(g31, E3(3), W({(1, 2): 1}))
    assert cosymplectic_lsa(S31) == expected_table(
        3, {(2, 2): {3: 1}, (3, 2): {1: -1}}
    )
    S34 = make(g34, E3(3), W({(1, 2): 1}))
    assert cosymplectic_lsa(S34) == expected_table(
        3, {(1, 2): {3: 1}, (2, 1): {3: 1}, (3, 1): {1: -1}, (3, 2): {2: 1}}
    )
    S35 = make(g35, E3(3), W({(1, 2): 1}))
    assert cosymplectic_lsa(S35) == expected_table(
        3, {(1, 1): {3: 1}, (2, 2): {3: 1}, (3, 1): {2: 1}, (3, 2): {1: -1}}
    )


def test_cosymplectic_lsa_of_printed_normal_form_differs(g31):
    # the printed normal form of the Weyl algebra produces this table, not
    # the catalog's attributed product table (which belongs to (lam e^3, e^{12}))
    S = make(g31, E3(2), W({(1, 3): 1}))
    assert cosymplectic_lsa(S) == expected_table(3, {(2, 3): {1: 1}, (3, 3): {2: -1}})


def test_cosymplectic_lsa_symbolic_lambda(g34):
    lam = Poly.var("lam")
    S = make(g34, OneForm(3, (sc.ZERO, sc.ZERO, lam)), W({(1, 2): 1}))
    T = cosymplectic_lsa(S)
    inv_lam2 = ratfn(F(1), lam * lam)
    assert T.products[0][1] == (sc.ZERO, sc.ZERO, inv_lam2)
    assert T.products[2][0] == (F(-1), F(0), F(0))


def test_two_routes_agree_on_catalog():
    for name, S in STRUCTURES:
        assert _lsa_via_phi(S) == _lsa_via_parts(S), name


def test_left_symmetry_on_catalog():
    for name, S in STRUCTURES:
        T = cosymplectic_lsa(S)
        rep = left_symmetry_defect(T, S.algebra)
        assert rep["pass"], name


def test_left_symmetry_defect_reports_commutator_mismatch():
    # product e1.e2 = e1 with abelian bracket: commutator defect e1
    T = LsaTable.from_dict(2, {(1, 2): {1: 1}})
    rep = left_symmetry_defect(T, LieAlgebra.abelian(2))
    assert not rep["pass"]
    assert rep["commutator"] == [(1, 2, (F(1), F(0)))]

    Tz = LsaTable.from_dict(2, {})
    assert left_symmetry_defect(Tz, LieAlgebra.abelian(2))["pass"]


def test_derivation_identity_on_catalog():
    for name, S in STRUCTURES:
        red = kernel_symplectic(S)
        star = symplectic_lsa(red.pair)
        D = red.deriv
        m = red.pair.algebra.dim
        for a in range(m):
            for b in range(m):
                lhs = pw.image(D, star.products[a][b])
                rhs = pw.vec_add(
                    pw.product(star, D.column(a), sc.basis_vec(m, b)),
                    pw.product(star, sc.basis_vec(m, a), D.column(b)),
                )
                assert lhs == rhs, name


# ---------------------------------------------------------------------------
# Bi-invariance


def test_biinvariance_examples(g21, g34):
    S = make(g21, E3(3), W({(1, 2): 1}))
    rep = biinvariance(S)
    assert rep.ok and rep.associative and rep.failed_conditions == []

    S34 = make(g34, E3(3), W({(1, 2): 1}))
    rep34 = biinvariance(S34)
    assert not rep34.ok and not rep34.associative
    assert 4 in rep34.failed_conditions

    S0 = make(LieAlgebra.abelian(3), E3(3), W({(1, 2): 1}))
    rep0 = biinvariance(S0)
    assert rep0.ok and rep0.associative


def test_biinvariance_conditions_iff_associative_on_catalog():
    for name, S in STRUCTURES:
        rep = biinvariance(S)
        assert rep.ok == rep.associative, name


# ---------------------------------------------------------------------------
# Nondegeneracy equivalence: det Phi = (volume / n!)^2


def test_volume_vanishes_iff_phi_singular_on_random_points():
    # det Phi = (vol / n!)^2: Phi = Omega + alpha alpha^T, and the adjugate
    # of the odd skew Omega is p p^T with p_m = (-1)^m Pf(Omega without m)
    rng = random.Random(31415)
    from coslie.scalars import det_poly
    from coslie.exterior import volume_coeff

    for name, L in family_algebras():
        dim = L.dim
        scale = F(factorial((dim - 1) // 2))
        for _ in range(50):
            alpha = OneForm(dim, tuple(F(rng.randint(-2, 2)) for _ in range(dim)))
            omega = TwoForm(
                dim,
                {
                    p: F(rng.randint(-2, 2))
                    for p in combinations(range(dim), 2)
                },
            )
            vol = volume_coeff(L, alpha, omega)
            det = det_poly(phi_map(L, alpha, omega))
            assert det == (vol / scale) ** 2, name


# ---------------------------------------------------------------------------
# Derived objects are computed once; associator identities against the
# original triple loops


def test_structure_checks_compute_each_derived_object_once(monkeypatch):
    import coslie.cosymplectic as cs
    from coslie.verify import _structure_checks

    calls = {}

    def counted(name):
        fn = getattr(cs, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        return wrapper

    for name in ("kernel_symplectic", "symplectic_lsa", "_lsa_via_phi"):
        monkeypatch.setattr(cs, name, counted(name))
    name, S0 = next((n, S) for n, S in STRUCTURES if S.dim == 5)
    S = make(S0.algebra, S0.alpha, S0.omega)
    out = []
    _structure_checks(name, S, out)
    assert [r.check for r in out] == ["left_symmetry", "deriv_identity", "biinv_consistency"]
    assert all(r.ok for r in out)
    assert calls == {"kernel_symplectic": 1, "symplectic_lsa": 1, "_lsa_via_phi": 1}


def seed_product(T, x, y):
    """Dense-vector bilinear product, as the table computed it originally."""
    out = sc.zero_vec(T.dim)
    for i in range(T.dim):
        if not x[i]:
            continue
        for j in range(T.dim):
            c = x[i] * y[j]
            if c:
                out = pw.vec_add(out, sc.vec_scale(c, T.products[i][j]))
    return out


def seed_left_symmetry_defect(T, L):
    n = T.dim
    basis = [sc.basis_vec(n, i) for i in range(n)]
    assoc = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                x, y, z = basis[i], basis[j], basis[k]
                lhs = sc.vec_sub(
                    seed_product(T, seed_product(T, x, y), z),
                    seed_product(T, x, seed_product(T, y, z)),
                )
                rhs = sc.vec_sub(
                    seed_product(T, seed_product(T, y, x), z),
                    seed_product(T, y, seed_product(T, x, z)),
                )
                d = sc.vec_sub(lhs, rhs)
                if any(d):
                    assoc.append((i + 1, j + 1, k + 1, d))
    comm = []
    for i in range(n):
        for j in range(i + 1, n):
            d = sc.vec_sub(
                sc.vec_sub(
                    seed_product(T, basis[i], basis[j]), seed_product(T, basis[j], basis[i])
                ),
                pw.bracket_basis(L, i, j),
            )
            if any(d):
                comm.append((i + 1, j + 1, d))
    return {"associator": assoc, "commutator": comm, "pass": not assoc and not comm}


def seed_associative(T):
    n = T.dim
    gb = [sc.basis_vec(n, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                d = sc.vec_sub(
                    seed_product(T, seed_product(T, gb[i], gb[j]), gb[k]),
                    seed_product(T, gb[i], seed_product(T, gb[j], gb[k])),
                )
                if any(d):
                    return False
    return True


def seed_condition1(star, D, w):
    m = star.dim
    basis = [sc.basis_vec(m, a) for a in range(m)]
    defects = []
    for a in range(m):
        for b in range(m):
            for c in range(m):
                x, y, z = basis[a], basis[b], basis[c]
                lhs = sc.vec_sub(
                    seed_product(star, seed_product(star, x, y), z),
                    seed_product(star, x, seed_product(star, y, z)),
                )
                rhs = sc.vec_scale(pw.value(w, D.column(b), x), D.column(c))
                d1v = sc.vec_sub(lhs, rhs)
                if any(d1v):
                    defects.append((a + 1, b + 1, c + 1, d1v))
    return defects


def test_associator_checks_match_the_triple_loops_on_catalog():
    for name, S in STRUCTURES:
        assert left_symmetry_defect(S.table, S.algebra) == seed_left_symmetry_defect(
            S.table, S.algebra
        ), name
        red = S.reduction
        rep = biinvariance(S)
        assert rep.associative == seed_associative(S.table), name
        assert rep.defects[1] == seed_condition1(S.star, red.deriv, red.pair.omega), name


table_entries = st.one_of(
    st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=2)
)


# symbolic entries: rationals, and c p and p + c for one free symbol p
PARAM = Poly.var("p")
symbolic_entries = st.one_of(
    table_entries, table_entries.map(lambda c: c * PARAM), table_entries.map(lambda c: PARAM + c)
)


def random_tables(n, entries=table_entries):
    return st.lists(
        st.lists(st.tuples(*[entries] * n).map(tuple), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda rows: LsaTable(n, tuple(tuple(r) for r in rows)))


@given(st.integers(1, 4).flatmap(random_tables))
def test_left_symmetry_defect_matches_the_triple_loop_on_random_tables(T):
    L = LieAlgebra.abelian(T.dim)
    assert left_symmetry_defect(T, L) == seed_left_symmetry_defect(T, L)


def sparse_tables(n, entries=symbolic_entries):
    """Tables with at most three nonzero structure constants, which are
    often associative and otherwise fail at an arbitrary triple."""

    def table(cells):
        products = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j, k), c in cells.items():
            products[i][j][k] = c
        return LsaTable(n, products)

    return st.dictionaries(st.tuples(*[st.integers(0, n - 1)] * 3), entries, max_size=3).map(table)


@given(st.integers(1, 4).flatmap(lambda n: random_tables(n, symbolic_entries)))
def test_left_symmetry_defect_matches_the_triple_loop_on_symbolic_tables(T):
    L = LieAlgebra.abelian(T.dim)
    assert left_symmetry_defect(T, L) == seed_left_symmetry_defect(T, L)


def products_equal(T, U):
    return all(
        x == y
        for row_t, row_u in zip(T.products, U.products)
        for v, w in zip(row_t, row_u)
        for x, y in zip(v, w)
    )


@given(
    st.integers(1, 3).flatmap(lambda n: random_tables(n, symbolic_entries)),
    st.sampled_from([2, -3, PARAM, PARAM + 1]),
    st.data(),
)
def test_table_equality_matches_the_products(T, k, data):
    n = T.dim
    scaled = LsaTable.over(n, [[[x * k for x in row] for row in M] for M in T.left], T.den * k)
    assert T == scaled and scaled == T and products_equal(T, scaled)
    zeros = [(i, r, c) for i in range(n) for r in range(n) for c in range(n) if not T.left[i][r][c]]
    if zeros:
        i, r, c = data.draw(st.sampled_from(zeros))
        left = [[list(row) for row in M] for M in T.left]
        left[i][r][c] = T.den
        changed = LsaTable.over(n, left, T.den)
        assert T != changed and changed != T and not products_equal(T, changed)


# g_{3.4} and a five-dimensional catalog instance: both have ad_xi != 0 on h
BIINV_HOSTS = [
    make(LieAlgebra.from_table(3, {(1, 3): {1: 1}, (2, 3): {2: -1}}), E3(3), W({(1, 2): 1})),
    next(
        S
        for _, S in STRUCTURES
        if S.dim == 5 and any(any(row) for row in S.reduction.deriv.matrix)
    ),
]


@given(
    st.sampled_from(BIINV_HOSTS).flatmap(
        lambda S: st.tuples(st.just(S), random_tables(S.dim - 1), random_tables(S.dim))
    )
)
def test_biinvariance_matches_the_triple_loops_on_random_tables(case):
    host, star, table = case
    S = make(host.algebra, host.alpha, host.omega)
    # stand-in products: the cached values are what biinvariance reads
    S.__dict__["star"] = star
    S.__dict__["table"] = table
    red = S.reduction
    rep = biinvariance(S)
    assert rep.associative == seed_associative(table)
    assert rep.defects[1] == seed_condition1(star, red.deriv, red.pair.omega)


@settings(max_examples=25)
@given(
    st.one_of(
        *(
            st.tuples(
                st.just(S),
                random_tables(S.dim - 1, symbolic_entries),
                st.one_of(random_tables(S.dim, symbolic_entries), sparse_tables(S.dim)),
            )
            for S in BIINV_HOSTS
        )
    )
)
def test_biinvariance_matches_the_triple_loops_on_symbolic_tables(case):
    host, star, table = case
    S = make(host.algebra, host.alpha, host.omega)
    S.__dict__["star"] = star
    S.__dict__["table"] = table
    red = S.reduction
    rep = biinvariance(S)
    assert rep.associative == seed_associative(table)
    assert rep.defects[1] == seed_condition1(star, red.deriv, red.pair.omega)


def seed_deriv_identity_defect(star, D):
    """D(e_a * e_b) - (D e_a) * e_b - e_a * (D e_b) by Scalar products."""
    m = star.dim
    basis = [sc.basis_vec(m, a) for a in range(m)]
    out = []
    for a in range(m):
        for b in range(m):
            d = sc.vec_sub(
                pw.image(D, seed_product(star, basis[a], basis[b])),
                pw.vec_add(
                    seed_product(star, D.column(a), basis[b]),
                    seed_product(star, basis[a], D.column(b)),
                ),
            )
            if any(d):
                out.append((a + 1, b + 1, d))
    return out


def seed_biinvariance_defects(star, D, w):
    """The defects of the four bi-invariance conditions by Scalar products."""
    m = star.dim
    basis = [sc.basis_vec(m, a) for a in range(m)]
    defects = {1: seed_condition1(star, D, w), 2: [], 3: [], 4: []}
    for a in range(m):
        d = pw.image(D, D.column(a))
        if any(d):
            defects[4].append((a + 1, d))
        for b in range(m):
            d = seed_product(star, basis[a], D.column(b))
            if any(d):
                defects[2].append((a + 1, b + 1, d))
            d = sc.vec_sub(
                seed_product(star, D.column(a), basis[b]),
                seed_product(star, D.column(b), basis[a]),
            )
            if any(d):
                defects[3].append((a + 1, b + 1, d))
    return defects


def with_deriv(host, D):
    """A fresh structure of host whose cached kernel reduction carries D in
    place of ad_xi|_h, so every check on the reduction reads that D; its
    product table is the host's (built from D, the parts route would no
    longer agree with the Phi route)."""
    red = host.reduction
    S = make(host.algebra, host.alpha, host.omega)
    S.__dict__["reduction"] = cs.KernelReduction(red.pair, D, red.basis, red.coords)
    S.__dict__["table"] = host.table
    return S


# A_{5,30}^1 has the most nonzero kernel products among the five-dimensional
# catalog structures; a catalog D passes every derivation identity
DERIV_HOST = dict(STRUCTURES)["A_{5,30}^1"]


def test_deriv_identity_defect_lists_a_perturbed_derivation():
    D = DERIV_HOST.reduction.deriv
    assert deriv_identity_defect(DERIV_HOST) == []
    rows = [list(row) for row in D.matrix]
    rows[0][0] += 1
    S = with_deriv(DERIV_HOST, LinearMap(4, 4, rows))
    assert deriv_identity_defect(S) == [
        (2, 3, (F(1, 2), F(0), F(0), F(0))),
        (3, 2, (F(-1, 2), F(0), F(0), F(0))),
    ]
    rows[0][0] += Poly.var("p")
    S = with_deriv(DERIV_HOST, LinearMap(4, 4, rows))
    half_p = Poly.var("p") / 2 + F(1, 2)
    assert deriv_identity_defect(S) == [
        (2, 3, (half_p, F(0), F(0), F(0))),
        (3, 2, (-half_p, F(0), F(0), F(0))),
    ]


deriv_entries = st.one_of(table_entries, st.just(Poly.var("p")))


@given(
    st.sampled_from([DERIV_HOST] + BIINV_HOSTS).flatmap(
        lambda S: st.tuples(
            st.just(S),
            st.lists(
                st.lists(deriv_entries, min_size=S.dim - 1, max_size=S.dim - 1),
                min_size=S.dim - 1,
                max_size=S.dim - 1,
            ),
        )
    )
)
def test_derivation_checks_match_the_loops_on_a_perturbed_derivation(case):
    host, rows = case
    m = host.dim - 1
    D = LinearMap(m, m, tuple(tuple(row) for row in rows))
    S = with_deriv(host, D)
    assert deriv_identity_defect(S) == seed_deriv_identity_defect(S.star, D)
    assert biinvariance(S).defects == seed_biinvariance_defects(
        S.star, D, S.reduction.pair.omega
    )


# ---------------------------------------------------------------------------
# Both routes under dense changes of basis


def inverse(M):
    """M^{-1}, its columns solved from M x = e_k by ``solve_linear``."""
    n = len(M)
    cols = sc.solve_linear(M, [[F(i == k) for i in range(n)] for k in range(n)])
    return [[cols[k][i] for k in range(n)] for i in range(n)]


def rebased(L, M):
    """L read in the basis f_i = M e_i (the columns of M)."""
    n = L.dim
    Minv = inverse(M)
    cols = [tuple(M[k][i] for k in range(n)) for i in range(n)]
    return LieAlgebra(
        n,
        {
            (i, j): sc.mat_vec(Minv, pw.bracket(L, cols[i], cols[j]))
            for i in range(n)
            for j in range(i + 1, n)
        },
    )


def change_basis(S, M):
    """The structure of S read in the basis f_i = M e_i (the columns of M)."""
    n = S.dim
    cols = [tuple(M[k][i] for k in range(n)) for i in range(n)]
    alpha = OneForm(n, tuple(pw.evaluate(S.alpha, c) for c in cols))
    omega = TwoForm(
        n, {(i, j): pw.value(S.omega, cols[i], cols[j]) for i in range(n) for j in range(i + 1, n)}
    )
    return make(rebased(S.algebra, M), alpha, omega)


def dense_change(n, entries, perm, scale):
    """L U Q D: unit lower and upper triangular factors filled from entries,
    a permutation Q and a diagonal rescaling D."""
    low = [[F(1) if i == j else F(entries[i * n + j]) if i > j else F(0) for j in range(n)]
           for i in range(n)]
    up = [[F(1) if i == j else F(entries[j * n + i]) if i < j else F(0) for j in range(n)]
          for i in range(n)]
    perm_scaled = [[scale[j] if perm[j] == i else F(0) for j in range(n)] for i in range(n)]
    return sc.mat_mul(sc.mat_mul(low, up), perm_scaled)


def fraction_table(S):
    """e_i . e_j solved from Phi(x.y) = -Phi(y) o ad_x with Fractions, by the
    inverse of Phi."""
    n = S.dim
    P = [list(row) for row in S.phi]
    Pinv = inverse(P)
    return tuple(
        tuple(
            sc.mat_vec(
                Pinv,
                [
                    -sum(
                        (P[k][j] * pw.bracket_basis(S.algebra, i, l)[k] for k in range(n)),
                        start=F(0),
                    )
                    for l in range(n)
                ],
            )
            for j in range(n)
        )
        for i in range(n)
    )


SMALL_STRUCTURES = [S for _, S in STRUCTURES if S.dim <= 5]


@settings(max_examples=25)
@given(
    st.sampled_from(SMALL_STRUCTURES).flatmap(
        lambda S: st.tuples(
            st.just(S),
            st.lists(st.integers(-2, 2), min_size=S.dim ** 2, max_size=S.dim ** 2),
            st.permutations(range(S.dim)),
            st.lists(
                st.sampled_from([F(1), F(2), F(-1, 2), F(1, 3)]),
                min_size=S.dim,
                max_size=S.dim,
            ),
        )
    )
)
def test_routes_agree_and_match_a_fraction_solve_under_dense_basis_changes(case):
    # a dense change moves alpha's pivot coefficient off 1 and gives xi
    # fractional entries; the numerator tables, their identities and both
    # routes must still agree with plain Fraction arithmetic
    S0, entries, perm, scale = case
    S = change_basis(S0, dense_change(S0.dim, entries, perm, scale))
    assert _lsa_via_phi(S) == _lsa_via_parts(S)
    assert S.table.products == fraction_table(S)
    assert left_symmetry_defect(S.table, S.algebra) == seed_left_symmetry_defect(
        S.table, S.algebra
    )
    red = S.reduction
    rep = biinvariance(S)
    assert rep.associative == seed_associative(S.table)
    assert rep.defects[1] == seed_condition1(S.star, red.deriv, red.pair.omega)


def test_a_perturbed_parts_route_is_caught(monkeypatch, g34):
    # every single entry of the parts route is compared with the Phi route
    parts = cs._lsa_via_parts
    S0 = make(g34, E3(3), W({(1, 2): 1}))
    for i, k, j in product(range(3), repeat=3):

        def perturbed(S):
            T = parts(S)
            left = [[list(row) for row in M] for M in T.left]
            left[i][k][j] += T.den
            return LsaTable.over(T.dim, left, T.den)

        monkeypatch.setattr(cs, "_lsa_via_parts", perturbed)
        with pytest.raises(AssertionError, match="product construction routes disagree"):
            cosymplectic_lsa(make(S0.algebra, S0.alpha, S0.omega))


def test_table_is_immutable_so_cached_views_stay_valid(g34):
    T = make(g34, E3(3), W({(1, 2): 1})).table
    products = T.products
    with pytest.raises(FrozenInstanceError):
        T.left = ()
    with pytest.raises(TypeError):
        T.left[0][0] = ()
    assert T.products is products
    assert all(type(M) is tuple and all(type(r) is tuple for r in M) for M in T.left)


def seed_kernel_parts(S):
    """The h brackets, omega_h and D = ad_xi|_h of the kernel reduction,
    from brackets and form values on the adapted basis vectors."""
    L, alpha = S.algebra, S.alpha
    n = L.dim
    pivot = next(k for k in range(n) if alpha.coeffs[k])
    ap = alpha.coeffs[pivot]
    kept = tuple(k for k in range(n) if k != pivot)
    hbasis = []
    for k in kept:
        v = list(sc.zero_vec(n))
        v[k] = sc.ONE
        coef = alpha.coeffs[k]
        if coef:
            v[pivot] = -(coef / ap)
        hbasis.append(tuple(v))

    def h_coords(w):
        return tuple(w[k] for k in kept)

    m = len(kept)
    hb = {}
    for a in range(m):
        for b in range(a + 1, m):
            v = pw.bracket(L, hbasis[a], hbasis[b])
            if any(v):
                hb[(a, b)] = h_coords(v)
    w_h = TwoForm(
        m,
        {(a, b): pw.value(S.omega, hbasis[a], hbasis[b]) for a in range(m) for b in range(a + 1, m)},
    )
    dcols = [h_coords(pw.bracket(L, S.reeb, hbasis[a])) for a in range(m)]
    deriv = LinearMap.from_columns(dcols) if m else LinearMap.zero(0)
    return LieAlgebra(m, hb), w_h, deriv, tuple(hbasis) + (S.reeb,)


def printed(x):
    """Values with the strings they print as, for a comparison of both."""
    if isinstance(x, dict):
        return {k: printed(v) for k, v in x.items()}
    if isinstance(x, tuple):
        return tuple(printed(v) for v in x)
    return x, str(x)


def with_symbolic_omega(S):
    """S with omega + p z, z the first cocycle of the echelon basis of Z^2
    off omega's span: xi and D then carry quotients in p."""
    z = next(w for w in cocycle_spaces(S.algebra)[1] if w != S.omega)
    p = Poly.var("p")
    coeffs = dict(S.omega.coeffs)
    for pair, c in z.coeffs.items():
        coeffs[pair] = coeffs.get(pair, sc.ZERO) + p * c
    return make(S.algebra, S.alpha, TwoForm(S.dim, coeffs))


@settings(max_examples=25)
@given(
    st.sampled_from(SMALL_STRUCTURES).flatmap(
        lambda S: st.tuples(
            st.just(S),
            st.lists(st.integers(-2, 2), min_size=S.dim ** 2, max_size=S.dim ** 2),
            st.permutations(range(S.dim)),
            st.lists(
                st.sampled_from([F(1), F(2), F(-1, 2), F(1, 3)]),
                min_size=S.dim,
                max_size=S.dim,
            ),
            st.booleans(),
        )
    )
)
def test_kernel_reduction_matches_brackets_of_the_adapted_basis(case):
    # values and printed strings of the h brackets, omega_h, D and the
    # adapted basis; with a symbol in omega, xi and D carry quotients
    S0, entries, perm, scale, symbolic = case
    S = change_basis(S0, dense_change(S0.dim, entries, perm, scale))
    if symbolic:
        S = with_symbolic_omega(S)
    red = kernel_symplectic(S)
    halg, w_h, deriv, basis = seed_kernel_parts(S)
    assert printed(red.pair.algebra.brackets) == printed(halg.brackets)
    assert printed(red.pair.omega.coeffs) == printed(w_h.coeffs)
    assert printed(red.deriv.matrix) == printed(deriv.matrix)
    assert printed(red.basis) == printed(basis)


def test_kernel_reduction_of_the_seven_dimensional_structures():
    for name, S in STRUCTURES:
        if S.dim == 7:
            halg, w_h, deriv, _ = seed_kernel_parts(S)
            red = kernel_symplectic(S)
            assert printed(red.pair.algebra.brackets) == printed(halg.brackets), name
            assert printed(red.pair.omega.coeffs) == printed(w_h.coeffs), name
            assert printed(red.deriv.matrix) == printed(deriv.matrix), name


# alpha's pivot coefficient carries the symbol (g_{2.1}+g_1, A_{5,1})
ALPHA_PIVOT_SYMBOLIC = [
    ("a2", 3, {(1, 2): {1: 1}}, {2: Poly.var("a2"), 3: F(-1, 2)}, {(1, 2): 2, (2, 3): -2}),
    (
        "a3",
        5,
        {(3, 5): {1: 1}, (4, 5): {2: 1}},
        {3: Poly.var("a3"), 5: F(1, 2)},
        {(1, 4): 2, (2, 3): 2, (2, 4): -1, (2, 5): F(-1, 2), (3, 4): F(-1, 2), (3, 5): -2,
         (4, 5): F(1, 2)},
    ),
]


@pytest.mark.parametrize("case", ALPHA_PIVOT_SYMBOLIC, ids=lambda c: c[0])
def test_a_symbolic_alpha_pivot_gives_the_substituted_tables(case):
    # the kernel basis and xi then hold quotients in the symbol, which the
    # product solve receives as numerators over their denominators
    var, dim, brackets, alpha, omega = case

    def structure(assignment):
        L = LieAlgebra.from_table(dim, brackets)
        a, w = OneForm.from_dict(dim, alpha), TwoForm.from_dict(dim, omega)
        return make(L, a.subs(assignment), w) if assignment else make(L, a, w)

    S = structure({})
    assert left_symmetry_defect(S.table, S.algebra)["pass"]
    rep = biinvariance(S)
    for value in (F(3), F(-2, 5)):
        R = structure({var: value})
        assert [
            [tuple(sc.poly_eval(x, {var: value}) for x in v) for v in row] for row in S.table.products
        ] == [[tuple(v) for v in row] for row in R.table.products]
        rep_at = biinvariance(R)
        assert (rep_at.failed_conditions, rep_at.associative) == (rep.failed_conditions, rep.associative)
