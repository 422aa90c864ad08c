from __future__ import annotations

import json
import os
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from coslie import scalars as sc
from coslie.algfile import format_algebra, parse_algebra
from coslie.catalog import (
    export_entry,
    get_entry,
    heisenberg,
    instantiate,
    list_entries,
)
from coslie.cosymplectic import exists_cosymplectic, validate
from coslie.errors import DegenerateParams, MissingParam, UnknownEntry
from coslie.exterior import OneForm, TwoForm
from coslie.lie_core import LieAlgebra
from coslie.scalars import Poly

import pairwise as pw


def test_listing_counts_and_headliners():
    names = list_entries()
    kinds = {}
    for n in names:
        kinds.setdefault(get_entry(n).kind, []).append(n)
    assert len(kinds["family"]) == 4 + 23
    assert len(kinds["normal"]) == 5
    assert kinds["heisenberg"] == ["Heisenberg"]
    assert kinds["aff"] == ["aff(2,R)⋉<e7>"]
    assert len(names) == 34
    for headliner in ("g_{2.1}⊕g_1", "g_{3.1}", "g_{3.4}^{-1}", "g_{3.5}^0", "A_{5,1}", "A_{5,37}"):
        assert headliner in names


def test_unknown_entry():
    with pytest.raises(UnknownEntry):
        get_entry("g_{9.9}")


def test_instantiate_normal_form_of_the_decomposable_algebra():
    L, alpha, omega = instantiate("g_{2.1}⊕g_1-normal-1", {})
    assert L == LieAlgebra.from_table(3, {(1, 2): {1: 1}})
    assert alpha == OneForm.dual(3, 3)
    assert omega == TwoForm.from_dict(3, {(1, 2): 1})
    # ascii alias accepted
    L2, _, _ = instantiate("g_{2.1}+g_1-normal-1", {})
    assert L2 == L


def test_instantiate_dim5_entry_validates():
    params = {
        "a3": F(1), "a24": F(1), "a34": F(0), "a35": F(0), "a45": F(0), "a5": F(0),
    }
    L, alpha, omega = instantiate("A_{5,30}^1", params)
    assert validate(L, alpha, omega).ok


def test_instantiate_heisenberg():
    L, alpha, omega = instantiate("Heisenberg", {"n": 2})
    assert alpha is None and omega is None
    assert L.dim == 5
    assert not exists_cosymplectic(L).exists
    with pytest.raises(MissingParam):
        instantiate("Heisenberg", {})


def test_instantiate_missing_and_degenerate():
    with pytest.raises(MissingParam):
        instantiate("g_{3.4}^{-1}", {"a3": F(1)})
    with pytest.raises(DegenerateParams):
        instantiate(
            "g_{3.4}^{-1}", {"a3": F(0), "a12": F(1), "a13": F(0), "a23": F(0)}
        )


def test_no_report_or_degenerate_message_prints_a_python_repr():
    # bindings print as --params spells them: "a12=0, a3=0", never a list
    # of (name, Fraction(...)) pairs
    for path in sorted((Path(__file__).parent / "data").glob("*.json")):
        assert "Fraction(" not in path.read_text(encoding="utf-8"), path.name
    messages = []
    for name in list_entries():
        entry = get_entry(name)
        if entry.kind == "heisenberg" or entry.nondeg is None:
            continue
        try:
            instantiate(name, dict.fromkeys(entry.param_names(), 0))
        except DegenerateParams as exc:
            messages.append(str(exc))
    assert len(messages) > 20 and not any("Fraction(" in m for m in messages)
    assert "nondegeneracy condition of g_{3.4}^{-1} vanishes at a12=0, a3=0" in messages


def test_every_entry_exports_and_round_trips():
    for name in list_entries():
        entry = get_entry(name)
        params = {"n": 2} if entry.kind == "heisenberg" else None
        text = export_entry(name, params)
        parsed = parse_algebra(text)
        if entry.kind == "heisenberg":
            assert parsed.algebra == heisenberg(2)
            continue
        assert parsed.algebra == entry.algebra(), name
        if entry.alpha is not None:
            assert parsed.alpha == entry.alpha, name
        if entry.omega is not None:
            assert parsed.omega == entry.omega, name
        # a second cycle through the printer is a fixed point
        from coslie.algfile import format_algebra

        again = format_algebra(parsed.algebra, parsed.alpha, parsed.omega, parsed.params)
        assert again == text, name


# ---------------------------------------------------------------------------
# verify_all


EXPECTED_DEVIATIONS = {
    ("g_{3.1}", "lsa_printed_normal_form"),
    ("A_{5,2}", "nondeg"),
    ("A_{5,5}", "nondeg"),
    ("A_{5,6}", "nondeg"),
    ("A_{5,7}^{a,-a,-1}", "omega_cocycle"),
    ("A_{5,7}^{a,-a,-1}", "z2_span"),
    ("aff(2,R)⋉<e7>", "validate_lam1"),
}

EXPECTED_FALLBACKS = {
    ("A_{5,7}^{1,-1,-1}", "z2_span"),
    ("A_{5,15}^{-1}", "nondeg"),
    ("A_{5,18}^0", "nondeg"),
    ("A_{5,30}^1", "nondeg"),
    ("A_{5,36}", "nondeg"),
    ("A_{5,37}", "nondeg"),
}


def test_verify_all_has_no_undocumented_failures(catalog_report):
    assert catalog_report.failures() == []


def test_verify_all_flags_exactly_the_documented_deviations(catalog_report):
    failing_flagged = {(r.entry, r.check) for r in catalog_report.flagged() if not r.ok}
    assert failing_flagged == EXPECTED_DEVIATIONS
    passing_flagged = {(r.entry, r.check) for r in catalog_report.flagged() if r.ok}
    assert passing_flagged == EXPECTED_FALLBACKS


def test_verify_all_nondeg_details(catalog_report):
    r = pw.find(catalog_report, "A_{5,2}", "nondeg")
    assert "deviates" in r.detail and "2*a15*a23*a4 - 2*a23^2*a5" in r.detail
    r51 = pw.find(catalog_report, "A_{5,1}", "nondeg")
    assert r51.ok and "exact_multiple" in r51.detail


RADICAL_CERTIFIED = ("A_{5,15}^{-1}", "A_{5,18}^0", "A_{5,30}^1", "A_{5,36}", "A_{5,37}")


def test_verify_all_certifies_equal_vanishing_sets_exactly(catalog_report):
    for name in RADICAL_CERTIFIED:
        r = pw.find(catalog_report, name, "nondeg")
        assert r.ok and r.flagged, name
        assert r.detail.startswith(
            "vanishing_equivalent: not a constant multiple, but each divides a power of the other"
        ), name
    for name in ("A_{5,2}", "A_{5,5}", "A_{5,6}"):  # their seeded witnesses stay
        assert "vanishing loci differ" in pw.find(catalog_report, name, "nondeg").detail, name


x, y, p, q = (Poly.var(n) for n in "xypq")


@pytest.mark.parametrize(
    "a, b, same",
    [
        (x, x**2, True),
        ((x - 1) ** 2 * y, (x - 1) * y**3, True),
        (x, x * y, False),
        (p**2 + q**2, p**2 + 2 * q**2, False),
    ],
)
def test_radical_check(a, b, same):
    from coslie.verify import _nondeg_policy, _same_radical

    assert _same_radical(a, b) == _same_radical(b, a) == same
    status, detail = _nondeg_policy(a, b)
    if same:
        assert status == "vanishing_equivalent" and "divides a power" in detail
    else:
        assert "divides a power" not in detail


def test_different_radicals_with_equal_rational_zeros_reach_the_sampler():
    # p^2 + q^2 and p^2 + 2 q^2 vanish at the same rational point, the
    # origin, but have different radicals: only the sampler can accept them
    from coslie.verify import _nondeg_policy

    status, detail = _nondeg_policy(p**2 + q**2, p**2 + 2 * q**2)
    assert status == "vanishing_equivalent"
    assert "vanishing agrees at 200 sample points" in detail


def test_verify_all_aff_checks(catalog_report):
    ok_checks = {
        "jacobi",
        "validate_lam0",
        "nonsolvable_lam0",
        "nonsolvable_lam1",
        "reeb_lam0",
        "corrected_lam0",
        "corrected_lam1",
    }
    for check in ok_checks:
        assert pw.find(catalog_report, "aff(2,R)⋉<e7>", check).ok, check
    bad = pw.find(catalog_report, "aff(2,R)⋉<e7>", "validate_lam1")
    assert not bad.ok and bad.flagged
    assert "(4, 5, 7)" in bad.detail


def test_verify_all_heisenberg(catalog_report):
    assert pw.find(catalog_report, "Heisenberg", "exists_H3").ok
    assert pw.find(catalog_report, "Heisenberg", "exists_H5").ok
    assert pw.find(catalog_report, "Heisenberg", "exists_H7").ok


def test_verify_all_normal_forms_and_witnesses(catalog_report):
    for name in list_entries():
        entry = get_entry(name)
        if entry.kind != "normal":
            continue
        for check in ("validate_symbolic", "reeb", "validate_samples", "normal_in_family", "witness_iso"):
            assert pw.find(catalog_report, name, check).ok, (name, check)


def test_verify_all_lsa_tables(catalog_report):
    for fam in ("g_{2.1}⊕g_1", "g_{3.1}", "g_{3.4}^{-1}", "g_{3.5}^0"):
        assert pw.find(catalog_report, fam, "lsa_table").ok, fam


def test_public_api_surface():
    import coslie

    for name in (
        "LieAlgebra", "LinearMap", "OneForm", "TwoForm", "CosymplecticStructure",
        "SymplecticPair", "LsaTable", "ExtensionData", "Poly", "RatFn",
        "bracket", "check_jacobi", "ad", "center", "derived_series", "is_solvable",
        "is_derivation", "check_isomorphism", "d1", "d2", "is_1cocycle",
        "is_2cocycle", "volume_coeff", "cocycle_spaces", "phi_map", "validate",
        "reeb", "exists_cosymplectic", "kernel_symplectic",
        "from_symplectic_derivation", "to_symplectic", "symplectic_lsa",
        "cosymplectic_lsa", "left_symmetry_defect", "biinvariance",
        "double_extend", "ist_check", "ist_component_check",
        "construct_A", "construct_B", "construct_C", "verify_all", "catalog",
        "nullspace", "det_poly", "poly_eval",
    ):
        assert hasattr(coslie, name), name


def test_verify_validates_only_inside_make(monkeypatch):
    # CosymplecticStructure.make is the only validation in catalog
    # verification: every validation belongs to a make call, so no triple
    # is validated and then made
    import coslie.cosymplectic as cs
    from coslie import verify

    calls = {"validate": 0, "make": 0}
    plain_validate, plain_make = cs.validate, cs.CosymplecticStructure.make

    def validate(L, alpha, omega):
        calls["validate"] += 1
        return plain_validate(L, alpha, omega)

    def make(L, alpha, omega):
        calls["make"] += 1
        return plain_make(L, alpha, omega)

    for module in (cs, verify):  # every namespace that binds the name
        if hasattr(module, "validate"):
            monkeypatch.setattr(module, "validate", validate)
    monkeypatch.setattr(cs.CosymplecticStructure, "make", staticmethod(make))
    for name in ("g_{2.1}⊕g_1", "g_{3.1}", "aff(2,R)⋉<e7>"):
        entry = get_entry(name)
        calls.update(validate=0, make=0)
        verify._verify_aff(entry) if entry.kind == "aff" else verify._verify_family(entry)
        assert calls["make"] and calls["validate"] == calls["make"], (name, calls)


def test_verify_makes_each_triple_once(monkeypatch):
    # the checks of one entry share the structures they make: verify_all
    # makes each of its 41 distinct triples once, and no structure outlives
    # the call; 4 of them are the normal forms whose forms hold lam, made
    # with lam free for their validate_symbolic and reeb lines
    import coslie.cosymplectic as cs
    from coslie import verify

    made = []
    plain_make = cs.CosymplecticStructure.make

    def make(L, alpha, omega):
        made.append(format_algebra(L, alpha, omega))
        return plain_make(L, alpha, omega)

    monkeypatch.setattr(cs.CosymplecticStructure, "make", staticmethod(make))
    # a forked worker's calls are not counted here: check in this process
    monkeypatch.setattr(verify, "_workers", lambda: 1)
    verify.verify_all()
    assert len(made) == len(set(made)) == 41
    verify.verify_all()
    assert made[41:] == made[:41]


GOLDEN = Path(__file__).parent / "data" / "verify_all.json"


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def assert_golden(report):
    """The report's --json output is the committed one, byte for byte."""
    text = json.dumps(report.to_dict(), indent=2, ensure_ascii=False) + "\n"
    assert text.encode("utf-8") == GOLDEN.read_bytes()


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_verify_all_report_does_not_depend_on_the_worker_count(monkeypatch, workers):
    from coslie import verify

    monkeypatch.setattr(verify, "_workers", lambda: workers)
    report = verify.verify_all()
    assert_no_child_left()
    assert_golden(report)


class Broken(Exception):
    pass


def test_verify_all_raises_what_an_entry_raises(monkeypatch):
    # the forked worker inherits the patch; whichever process takes a
    # family entry, the exception reaches the caller
    from coslie import verify

    def broken(entry):
        raise Broken(entry.name)

    monkeypatch.setattr(verify, "_workers", lambda: 2)
    monkeypatch.setitem(verify._CHECKS, "family", broken)
    with pytest.raises(Broken):
        verify.verify_all()
    assert_no_child_left()


def test_verify_all_checks_again_what_a_worker_did_not_report(monkeypatch):
    # every entry raises in the forked workers alone, so the calling
    # process checks each entry a worker took, and the report stays whole
    from coslie import verify

    caller = os.getpid()
    checks = dict(verify._CHECKS)

    def only_here(kind):
        def check(entry):
            if os.getpid() != caller:
                raise Broken(entry.name)
            return checks[kind](entry)

        return check

    monkeypatch.setattr(verify, "_workers", lambda: 3)
    for kind in checks:
        monkeypatch.setitem(verify._CHECKS, kind, only_here(kind))
    report = verify.verify_all()
    assert_no_child_left()
    assert_golden(report)


def seed_in_span(rows: list, vectors) -> bool:
    """The span test of the catalog verifier before it compared ranks: the
    rows are reduced to echelon rows once, and v lies in their span iff
    nothing is left after v[p] times the echelon row of each pivot column
    p is taken off."""
    echelon, pivots = sc.rref(rows)
    for v in vectors:
        for row, p in zip(echelon, pivots):
            if v[p]:
                v = sc.vec_sub(v, sc.vec_scale(v[p], row))
        if any(v):
            return False
    return True


small = st.integers(-3, 3).map(F)


@given(st.data())
def test_span_test_agrees_with_the_echelon_loop(data):
    # rows are combinations of fewer generators, so they are linearly
    # dependent; the vectors mix members of their span and arbitrary ones
    from coslie.verify import _in_span

    width = data.draw(st.integers(2, 5))
    vector = st.lists(small, min_size=width, max_size=width).map(tuple)
    gens = data.draw(st.lists(vector, min_size=1, max_size=width - 1))

    def combination(coeffs):
        out = sc.zero_vec(width)
        for c, g in zip(coeffs, gens):
            out = pw.vec_add(out, sc.vec_scale(c, g))
        return out

    member = st.lists(small, min_size=len(gens), max_size=len(gens)).map(combination)
    rows = data.draw(st.lists(member, min_size=len(gens) + 1, max_size=len(gens) + 3))
    assert sc.rank(rows) < len(rows)
    vectors = data.draw(st.lists(vector | member, min_size=1, max_size=3))
    assert _in_span(rows, vectors) == seed_in_span(rows, vectors)
