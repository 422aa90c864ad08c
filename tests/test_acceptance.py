"""Acceptance suite.

One test per acceptance criterion of the project; each prints a single
PASS/FAIL line.
Everything is exact rational arithmetic: the tolerance everywhere is
equality, with zero slack.

Criteria 5 and 7 assert the catalog source tables as printed.  Exact
recomputation shows two of the printed items are internally inconsistent
(see the verification report's flagged entries), so those two criteria
fail honestly rather than being weakened: criterion 5 on the symbolic
cocycle check of A_{5,7}^{a,-a,-1} (its printed e^{24} term is not
closed), and criterion 7 at lam = 1 (the printed brackets make omega
non-closed on the triple (e4, e5, e7)).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations

import pytest

from coslie import scalars as sc
from coslie.catalog import (
    AFF_ALPHA,
    AFF_OMEGA,
    aff_corrected_algebra,
    get_entry,
    heisenberg,
    instantiate,
    list_entries,
)
from coslie.cosymplectic import (
    CosymplecticStructure,
    LsaTable,
    _lsa_via_parts,
    _lsa_via_phi,
    cosymplectic_lsa,
    exists_cosymplectic,
    from_symplectic_derivation,
    kernel_symplectic,
    left_symmetry_defect,
    phi_map,
    symplectic_lsa,
    to_symplectic,
    validate,
)
from coslie.exterior import OneForm, TwoForm, volume_coeff
from coslie.extensions import (
    ExtensionData,
    assemble_extension,
    construct_A,
    construct_B,
    construct_C,
    form_twist,
    ist_component_check,
    prop_conditions,
)
from coslie.lie_core import (
    LieAlgebra,
    LinearMap,
    check_isomorphism,
    check_jacobi,
    is_solvable,
)

import pairwise as pw

DIM3_FAMILIES = ("g_{2.1}⊕g_1", "g_{3.1}", "g_{3.4}^{-1}", "g_{3.5}^0")


def outcome(criterion: int, ok: bool, summary: str, problems=()):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {summary}"
    print(line)
    if not ok:
        pytest.fail(line + "".join(f"\n  * {p}" for p in problems), pytrace=False)


@pytest.fixture(scope="module")
def structures():
    out = []
    for name in list_entries():
        entry = get_entry(name)
        if entry.kind == "heisenberg":
            continue
        if entry.kind == "aff":
            out.append(
                (name + "@lam=0",
                 CosymplecticStructure.make(entry.algebra({"lam": F(0)}), AFF_ALPHA, AFF_OMEGA))
            )
            out.append(
                (name + "@corrected-lam=1",
                 CosymplecticStructure.make(aff_corrected_algebra(F(1)), AFF_ALPHA, AFF_OMEGA))
            )
            continue
        L, alpha, omega = instantiate(name, entry.sample)
        if validate(L, alpha, omega).ok:
            out.append((name, CosymplecticStructure.make(L, alpha, omega)))
    return out


def test_criterion_01_dim3_families_and_normal_forms(catalog_report):
    problems = []
    for fam in DIM3_FAMILIES:
        for check in ("jacobi", "alpha_cocycle", "omega_cocycle"):
            r = pw.find(catalog_report, fam, check)
            if not r.ok:
                problems.append(f"{fam} {check}: {r.detail}")
    normals = [n for n in list_entries() if get_entry(n).kind == "normal"]
    assert len(normals) == 5
    for name in normals:
        for check in ("validate_symbolic", "reeb", "validate_samples"):
            r = pw.find(catalog_report, name, check)
            if not r.ok:
                problems.append(f"{name} {check}: {r.detail}")
    outcome(
        1,
        not problems,
        "four dim-3 families symbolically closed; five normal forms validate "
        "exactly with their computed Reeb vectors",
        problems,
    )


def test_criterion_02_product_tables_at_two_scales():
    problems = []
    for fam in DIM3_FAMILIES:
        entry = get_entry(fam)
        exp = entry.lsa
        for lam in (F(1), F(2)):
            subs = {"lam": lam}
            S = CosymplecticStructure.make(
                entry.algebra(subs), exp.alpha.subs(subs), exp.omega.subs(subs)
            )
            got = cosymplectic_lsa(S)
            want = LsaTable.from_dict(
                entry.dim,
                {
                    ij: {k: sc.scalar_subs(sc.as_scalar(c), subs) for k, c in comps.items()}
                    for ij, comps in exp.table.items()
                },
            )
            if got != want:
                problems.append(f"{fam} at lam={lam}: {got.nonzero_entries()}")
    outcome(
        2,
        not problems,
        "all four printed product tables reproduced exactly at lam = 1 and "
        "lam = 2 (1/lam^2 coefficients included)",
        problems,
    )


def test_criterion_03_left_symmetry_everywhere(structures):
    problems = []
    dims = set()
    for name, S in structures:
        dims.add(S.dim)
        rep = left_symmetry_defect(cosymplectic_lsa(S), S.algebra)
        if not rep["pass"]:
            problems.append(name)
    ok = not problems and dims == {3, 5, 7}
    outcome(
        3,
        ok,
        f"left-symmetry holds exactly on every validated catalog structure "
        f"(dims {sorted(dims)})",
        problems or [f"dims covered: {sorted(dims)}"],
    )


def test_criterion_04_derivation_identity_and_two_routes(structures):
    problems = []
    for name, S in structures:
        if _lsa_via_phi(S) != _lsa_via_parts(S):
            problems.append(f"{name}: construction routes disagree")
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
                if lhs != rhs:
                    problems.append(f"{name}: derivation identity fails at ({a + 1},{b + 1})")
    outcome(
        4,
        not problems,
        "ad_xi is a derivation of the kernel product and both product "
        "constructions agree entry-by-entry on every catalog entry",
        problems,
    )


def test_criterion_05_dim5_catalog(catalog_report):
    problems = []
    dim5 = [n for n in list_entries() if get_entry(n).kind == "family" and get_entry(n).dim == 5]
    assert len(dim5) == 23
    for name in dim5:
        for check in ("jacobi", "alpha_cocycle", "omega_cocycle"):
            r = pw.find(catalog_report, name, check)
            if not r.ok:
                problems.append(f"{name} {check}: {r.detail}")
        nd = pw.find(catalog_report, name, "nondeg")
        if not nd.ok:
            problems.append(f"{name} nondeg: {nd.detail}")
        inst = pw.find(catalog_report, name, "instantiate")
        if not inst.ok:
            problems.append(f"{name} instantiate: {inst.detail}")
    outcome(
        5,
        not problems,
        "all 23 dim-5 families: Jacobi + symbolic cocycles, nondegeneracy "
        "condition matches computed volume per policy, one validated "
        "instantiation each",
        problems,
    )


def test_criterion_06_heisenberg():
    problems = []
    if not exists_cosymplectic(heisenberg(1)).exists:
        problems.append("H3 reported as not cosymplectic")
    for n in (2, 3):
        res = exists_cosymplectic(heisenberg(n))
        if res.exists or res.det:
            problems.append(f"H{2 * n + 1}: exists={res.exists}, det zero={not res.det}")
    outcome(
        6,
        not problems,
        "existence decision: yes for H3; no for H5 and H7 with det Phi "
        "identically zero as a polynomial",
        problems,
    )


def test_criterion_07_aff_extension():
    problems = []
    entry = get_entry("aff(2,R)⋉<e7>")
    for lam in (F(0), F(1)):
        L = entry.algebra({"lam": lam})
        rep = validate(L, AFF_ALPHA, AFF_OMEGA)
        if not rep.ok:
            defect = ""
            if rep.cocycle2_defect is not None:
                triples = sorted(
                    (i + 1, j + 1, k + 1) for (i, j, k) in rep.cocycle2_defect.coeffs
                )
                defect = f"; omega not closed on {triples}"
            problems.append(f"lam={lam}: {rep}{defect}")
        if is_solvable(L):
            problems.append(f"lam={lam}: solvable")
    outcome(
        7,
        not problems,
        "printed aff(2,R) extension validates at lam in {0, 1} with the "
        "stated forms and is non-solvable",
        problems,
    )


def test_criterion_08_constructions_reproduce_worked_examples():
    problems = []
    base = LieAlgebra.from_table(3, {(1, 2): {1: 1}})
    abar = OneForm.dual(3, 3)
    obar = TwoForm.from_dict(3, {(1, 2): 1})

    def phi_mat(a, b, c, f):
        return LinearMap(3, 3, ((a, b, 0), (0, 0, 0), (0, c, f)))

    b_, f_, lam3, z_ = F(1), F(1), F(1), F(1)
    res1 = construct_A(
        base, abar, obar,
        ExtensionData(phi_mat(0, b_, 0, f_), OneForm.from_dict(3, {3: lam3}),
                      (F(0), F(0), z_), -f_, TwoForm.zero(3)),
    )
    want1 = {
        (0, 1): (F(1), F(0), F(0), F(0), F(0)),
        (1, 3): (-b_, F(0), F(0), F(0), F(0)),
        (2, 3): (F(0), F(0), -f_, F(0), -lam3),
        (3, 4): (F(0), F(0), z_, F(0), -f_),
    }
    if res1.algebra.brackets != want1:
        problems.append("first construction brackets differ")
    if res1.structure.alpha != OneForm.dual(5, 4) or res1.structure.omega != TwoForm.from_dict(
        5, {(1, 2): 1, (3, 5): 1}
    ):
        problems.append("first construction forms differ")
    if res1.structure.reeb != sc.basis_vec(5, 3):
        problems.append("first construction Reeb vector is not d")

    a_, t_ = F(1), F(0)
    phiB = phi_mat(a_, F(1), 0, 0)
    res2 = construct_B(
        base, abar, obar,
        ExtensionData(
            phiB,
            OneForm.from_dict(3, {1: a_ * a_ - t_ * a_, 2: F(1), 3: F(1)}),
            sc.zero_vec(3), t_, form_twist(obar, phiB),
        ),
        alpha_d=F(2),
    )
    want2 = {
        (0, 1): (F(1), F(0), F(0), F(0), a_),
        (0, 3): (-a_, F(0), F(0), F(0), -(a_ * a_ - t_ * a_)),
        (1, 3): (F(-1), F(0), F(0), F(0), F(-1)),
        (2, 3): (F(0), F(0), F(0), F(0), F(-1)),
    }
    if res2.algebra.brackets != want2:
        problems.append("second construction brackets differ")
    if res2.structure.alpha != OneForm.from_dict(5, {3: 1, 4: 2}):
        problems.append("second construction alpha differs")
    if res2.structure.reeb != sc.basis_vec(5, 2):
        problems.append("second construction Reeb vector moved")

    res3 = construct_C(base, abar, obar, phi_mat(0, F(1), F(1), F(1)), (F(0), F(0), F(1)), alpha_d=F(2))
    want3 = {
        (0, 1): (F(1), F(0), F(0), F(0), F(0)),
        (1, 3): (F(-1), F(0), F(-1), F(0), F(-1)),
        (2, 3): (F(0), F(0), F(-1), F(0), F(-1)),
        (3, 4): (F(0), F(0), F(1), F(0), F(1)),
    }
    if res3.algebra.brackets != want3:
        problems.append("third construction brackets differ")
    if res3.structure.alpha != OneForm.from_dict(5, {3: 1, 4: 2, 5: -1}):
        problems.append("third construction alpha differs")
    if res3.structure.reeb != sc.basis_vec(5, 2):
        problems.append("third construction Reeb vector moved")

    d1_, d2_, d3_ = (pw.derived_dim(r.algebra) for r in (res1, res2, res3))
    if not (d1_ == 3 and d2_ <= 2 and d3_ <= 2 and d1_ > d2_ and d1_ > d3_):
        problems.append(f"derived-dimension discriminator: {d1_}, {d2_}, {d3_}")
    outcome(
        8,
        not problems,
        "constructions A/B/C rebuild the three worked 5-dim examples "
        "bracket-for-bracket with their forms, Reeb vectors, and the "
        "derived-dimension discriminator",
        problems,
    )


def test_criterion_09_property_suites(structures):
    problems = []
    base = LieAlgebra.from_table(3, {(1, 2): {1: 1}})
    abar = OneForm.dual(3, 3)
    obar = TwoForm.from_dict(3, {(1, 2): 1})

    # (a) extension compatibility conditions <=> Jacobi, 200 trials
    rng = random.Random(11731)
    bases = [base, LieAlgebra.abelian(3), LieAlgebra.from_table(3, {(2, 3): {1: 1}})]
    holds = 0
    for trial in range(200):
        L = bases[trial % len(bases)]
        if trial % 8 == 0:
            E = ExtensionData.zero(3)
        else:
            rnd = lambda: F(rng.randint(-2, 2))
            E = ExtensionData(
                LinearMap(3, 3, tuple(tuple(rnd() for _ in range(3)) for _ in range(3))),
                OneForm(3, (rnd(), rnd(), rnd())),
                (rnd(), rnd(), rnd()),
                rnd(),
                TwoForm(3, {(i, j): rnd() for i in range(3) for j in range(i + 1, 3)}),
            )
        failures = prop_conditions(L, E)
        defects = check_jacobi(assemble_extension(L, E))
        if bool(failures) != bool(defects):
            problems.append(f"conditions/Jacobi equivalence broken at trial {trial}")
        if not failures:
            holds += 1
    if holds < 20:
        problems.append("too few positive cases in the conditions/Jacobi suite")

    # (b) componentwise i.s.t. conditions <=> direct check, 200 trials
    rng = random.Random(55117)
    holds = 0
    for trial in range(200):
        rnd = lambda: F(rng.randint(-3, 3))
        if trial % 5 == 0:
            p, q, r = rnd(), rnd(), rnd()
            s1, s2 = rnd(), rnd()
            u1, u2, u3 = rnd(), rnd(), rnd()
            E = ExtensionData(
                LinearMap(3, 3, ((p, q, u1), (r, -p, u2), (s1, s2, u3))),
                OneForm(3, (u2, -u1, rnd())),
                (s2, -s1, rnd()),
                -u3,
                TwoForm.zero(3),
            )
        else:
            E = ExtensionData(
                LinearMap(3, 3, tuple(tuple(rnd() for _ in range(3)) for _ in range(3))),
                OneForm(3, (rnd(), rnd(), rnd())),
                (rnd(), rnd(), rnd()),
                rnd(),
                TwoForm.zero(3),
            )
        rep = ist_component_check(base, abar, obar, E)
        if not rep.agree:
            problems.append(f"i.s.t. equivalence broken at trial {trial}")
        if rep.ok:
            holds += 1
    if holds < 20:
        problems.append("too few positive cases in the i.s.t. suite")

    # (c) symplectization equivalence, both directions
    for name, S in structures:
        if not to_symplectic(S.algebra, S.alpha, S.omega).validate()[2]:
            problems.append(f"{name}: symplectization not symplectic")
    broken = to_symplectic(base, OneForm.dual(3, 1), obar)
    if broken.validate()[0]:
        problems.append("non-cocycle input gave a closed symplectization")
    degenerate = to_symplectic(base, abar, TwoForm.zero(3))
    if degenerate.validate()[2]:
        problems.append("degenerate input gave a symplectic extension")

    # (d) kernel-reduction round trip on all dim-3 entries
    for name, S in structures:
        if S.dim != 3:
            continue
        red = kernel_symplectic(S)
        rebuilt = from_symplectic_derivation(red.pair, red.deriv)
        M = LinearMap.from_columns(list(red.basis))
        rep = check_isomorphism(
            rebuilt.algebra, S.algebra, M, rebuilt.alpha, S.alpha, rebuilt.omega, S.omega
        )
        if not rep.ok:
            problems.append(f"{name}: round trip witness fails ({rep})")

    # (e) volume = 0 <=> det Phi = 0 at 50 random points per algebra
    rng = random.Random(90210)
    for fam in list_entries():
        entry = get_entry(fam)
        if entry.kind != "family":
            continue
        L = entry.algebra(entry.struct_params or None)
        dim = L.dim
        for _ in range(50):
            alpha = OneForm(dim, tuple(F(rng.randint(-2, 2)) for _ in range(dim)))
            omega = TwoForm(dim, {p: F(rng.randint(-2, 2)) for p in combinations(range(dim), 2)})
            vol = volume_coeff(L, alpha, omega)
            det = sc.det_poly(phi_map(L, alpha, omega))
            if (vol == 0) != (det == 0):
                problems.append(f"{fam}: volume/determinant equivalence fails")
                break
    outcome(
        9,
        not problems,
        "equivalence and round-trip property suites (200 + 200 trials, "
        "symplectization both directions, dim-3 round trips, 50-point "
        "volume/determinant agreement per family) all exact",
        problems,
    )


def test_criterion_10_verify_all_is_byte_deterministic(tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    outputs = []
    for seed in ("0", "424"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-m", "coslie.cli", "catalog", "verify-all", "--json"],
            capture_output=True,
            env=env,
            check=False,
        )
        outputs.append(proc.stdout)
    identical = outputs[0] == outputs[1] and outputs[0]
    payload = json.loads(outputs[0]) if identical else {}
    ok = bool(identical) and payload.get("result", {}).get("failed") == 0
    outcome(
        10,
        ok,
        "two catalog verify-all --json runs (different hash seeds) are "
        "byte-identical with zero undocumented failures",
        ["outputs differ or verification failed"],
    )
