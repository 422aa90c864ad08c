"""Full catalog verification.

Every check recomputes the verified fact from scratch; nothing is assumed
from the stored tables beyond the data itself.  Checks that fail because
the stored (printed) data is wrong are marked as flagged when the entry
documents the deviation; an undocumented failure is a real failure.

The entries share nothing, so ``verify_all`` checks them in one process
per usable CPU and puts the results back in catalog order: the report is
the same, byte for byte, whichever process checked an entry.
"""

from __future__ import annotations

import marshal
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import catalog as cat
from . import scalars as sc
from .cosymplectic import (
    CosymplecticStructure,
    LsaTable,
    biinvariance,
    deriv_identity_defect,
    exists_cosymplectic,
    left_symmetry_defect,
)
from .errors import InexactDivision, NotCosymplectic
from .exterior import TwoForm, cocycle_spaces, d1, d2, volume_coeff
from .lie_core import check_isomorphism, check_jacobi, is_solvable

F = Fraction

_SAMPLE_POOL = [F(0), F(1), F(-1), F(2), F(-2), F(3), F(-3), F(1, 2), F(-1, 2), F(5)]
_SAMPLE_SEED = 20250608
_LAM_SAMPLES = (F(1), F(2))
_INDEX_BYTES = 4  # one entry index in the work queue


@dataclass
class CheckResult:
    entry: str
    check: str
    ok: bool
    flagged: bool
    detail: str

    def line(self) -> str:
        status = "ok" if self.ok else "FAIL"
        if self.flagged:
            status += " (flagged: documented deviation)" if not self.ok else " (flagged)"
        text = f"{self.entry} :: {self.check}: {status}"
        if self.detail:
            text += f" -- {self.detail}"
        return text


@dataclass
class CatalogReport:
    results: list

    def ok(self) -> bool:
        return all(r.ok or r.flagged for r in self.results)

    def failures(self) -> list:
        return [r for r in self.results if not r.ok and not r.flagged]

    def flagged(self) -> list:
        return [r for r in self.results if r.flagged]

    def to_dict(self) -> dict:
        entries: dict = {}
        for r in self.results:
            entries.setdefault(r.entry, []).append(
                {"name": r.check, "pass": r.ok, "flagged": r.flagged, "defect": r.detail}
            )
        return {
            "command": "catalog verify-all",
            "input": "builtin catalog",
            "checks": [
                {"entry": name, "results": checks} for name, checks in entries.items()
            ],
            "result": {
                "ok": self.ok(),
                "total": len(self.results),
                "failed": len(self.failures()),
                "flagged": len(self.flagged()),
            },
        }


def _result(entry, check, ok, detail="", flagged=False):
    return CheckResult(entry.name if hasattr(entry, "name") else entry, check, ok, flagged, detail)


def _known(entry, check) -> bool:
    return check in entry.known_deviations


# ---------------------------------------------------------------------------
# Building blocks


def _same_radical(p, q) -> bool:
    """True if the polynomials p and q each divide a power of the other, so
    that they vanish at the same points; by the Nullstellensatz this is
    their having the same radical.  If p divides some power of q, it divides
    q^deg(p): no irreducible factor occurs in p more than deg(p) times."""
    # a nonzero constant vanishes nowhere, and so may a polynomial, at
    # rational points: the sampler decides
    if not (sc.total_degree(p) and sc.total_degree(q)):
        return False
    try:
        for a, b in ((p, q), (q, p)):
            (b ** a.total_degree()).exact_div(a)
    except InexactDivision:
        return False
    return True


def _nondeg_policy(printed, comp) -> tuple:
    """(status, detail); status in exact_multiple / vanishing_equivalent /
    deviates.  Vanishing equivalence is exact when the two have the same
    radical; only a pair whose radicals differ is compared at seeded sample
    points, which may find a witness that the vanishing loci differ."""
    if not comp or not printed:
        if not comp and not printed:
            return "exact_multiple", "both identically zero"
        return "deviates", "one side identically zero"
    q = sc.ratfn(comp, printed)
    if sc.is_rational(q):
        return "exact_multiple", f"computed volume = {q} * printed"
    if _same_radical(printed, comp):
        return (
            "vanishing_equivalent",
            "not a constant multiple, but each divides a power of the other, so both "
            f"vanish on the same set; computed volume = {comp}",
        )
    variables = sorted(sc.scalar_variables(printed) | sc.scalar_variables(comp))
    rng = random.Random(_SAMPLE_SEED)
    for trial in range(200):
        assignment = {v: rng.choice(_SAMPLE_POOL) for v in variables}
        pz = sc.poly_eval(printed, assignment) == 0
        cz = sc.poly_eval(comp, assignment) == 0
        if pz != cz:
            side = "printed nonzero, volume zero" if cz else "printed zero, volume nonzero"
            return (
                "deviates",
                f"vanishing loci differ ({side} at {sc.bindings_str(assignment)}); "
                f"computed volume = {comp}",
            )
    return (
        "vanishing_equivalent",
        f"not a constant multiple, but vanishing agrees at 200 sample points; computed volume = {comp}",
    )


def _in_span(rows: list, vectors) -> bool:
    """True if every vector lies in the span of rows: adding them leaves
    the rank unchanged."""
    return sc.rank(rows + list(vectors)) == sc.rank(rows)


def _vector(form) -> tuple:
    """The coefficients of a one-form by basis index, or of a two-form over
    the pairs i < j in lexicographic order, the columns of
    ``cocycle_spaces``."""
    if isinstance(form, TwoForm):
        return tuple(form.coeffs.get(pair, sc.ZERO) for pair in combinations(range(form.dim), 2))
    return form.coeffs


def _family_vectors(form, struct: dict) -> list:
    """Per-parameter coefficient vectors of a (linear, homogeneous) family,
    with the structure parameters set to struct.  At p = 1 and every other
    parameter 0 a coefficient is the sum of its constant term and its terms
    in p alone, so one pass over the terms gives every vector."""
    params = cat.symbols(_vector(form))
    columns = []
    for c in _vector(form.subs(struct)):
        if sc.is_rational(c):
            columns.append(dict.fromkeys(params, c))
            continue
        constant, alone = F(0), dict.fromkeys(params, F(0))
        for exp, coef in c.terms.items():
            used = [name for name, power in zip(c.variables, exp) if power]
            if not used:
                constant += coef
            elif len(used) == 1:
                alone[used[0]] += coef
        columns.append({p: constant + value for p, value in alone.items()})
    return [tuple(at[p] for at in columns) for p in params]


def _span_result(entry, check, family_vectors, space):
    member = _in_span([_vector(f) for f in space], family_vectors)
    fam_rank = sc.rank(family_vectors)
    space_dim = len(space)
    detail = f"family rank {fam_rank}, cocycle space dim {space_dim}"
    if not member:
        detail += "; some family member is not a cocycle"
    elif fam_rank < space_dim:
        detail += "; family spans a proper subspace"
    flagged = (not member and _known(entry, check)) or (member and fam_rank < space_dim)
    return _result(entry, check, member, detail, flagged=flagged)


def _structure_checks(entry_name, S: CosymplecticStructure, out: list, suffix=""):
    """Shared per-instance identity checks: left-symmetry of the product
    (with the two construction routes compared), the derivation identity
    of ad_xi on the kernel product, and bi-invariance consistency."""
    try:
        table = S.table  # cross-checks the two routes internally
        ls = left_symmetry_defect(table, S.algebra)
        out.append(
            _result(
                entry_name,
                f"left_symmetry{suffix}",
                ls["pass"],
                "" if ls["pass"] else f"defects: {ls}",
            )
        )
    except AssertionError as exc:
        out.append(_result(entry_name, f"left_symmetry{suffix}", False, str(exc)))
        return

    ok = not deriv_identity_defect(S)
    out.append(_result(entry_name, f"deriv_identity{suffix}", ok))

    rep = biinvariance(S)
    out.append(
        _result(
            entry_name,
            f"biinv_consistency{suffix}",
            rep.ok == rep.associative,
            f"conditions {'all hold' if rep.ok else 'fail ' + str(rep.failed_conditions)}, "
            f"product {'associative' if rep.associative else 'not associative'}",
        )
    )


# ---------------------------------------------------------------------------
# Per-entry verification


def _verify_family(entry) -> list:
    out: list = []
    L_sym = entry.algebra()
    jd = check_jacobi(L_sym)
    out.append(
        _result(entry, "jacobi", not jd, "" if not jd else f"defects at {[d[:3] for d in jd]}")
    )

    da = d1(L_sym, entry.alpha)
    out.append(
        _result(
            entry,
            "alpha_cocycle",
            da.is_zero(),
            "" if da.is_zero() else f"d(alpha) = {da.coeffs}",
            flagged=not da.is_zero() and _known(entry, "alpha_cocycle"),
        )
    )
    dw = d2(L_sym, entry.omega)
    dw_detail = ""
    if not dw.is_zero():
        triples = sorted((i + 1, j + 1, k + 1) for (i, j, k) in dw.coeffs)
        dw_detail = f"d(omega) nonzero on {triples}"
    out.append(
        _result(
            entry,
            "omega_cocycle",
            dw.is_zero(),
            dw_detail,
            flagged=not dw.is_zero() and _known(entry, "omega_cocycle"),
        )
    )

    struct = entry.struct_params
    L = entry.algebra(struct)
    z1, z2 = cocycle_spaces(L)
    family = _family_vectors(entry.alpha, struct), _family_vectors(entry.omega, struct)
    out.append(_span_result(entry, "z1_span", family[0], z1))
    out.append(_span_result(entry, "z2_span", family[1], z2))

    vol = volume_coeff(L, entry.alpha.subs(struct), entry.omega.subs(struct))
    printed = sc.scalar_subs(entry.nondeg, struct)
    status, detail = _nondeg_policy(printed, vol)
    out.append(
        _result(
            entry,
            "nondeg",
            status != "deviates",
            f"{status}: {detail}",
            flagged=(status == "vanishing_equivalent")
            or (status == "deviates" and _known(entry, "nondeg")),
        )
    )

    make = _maker()
    try:
        S = make(*cat.instantiate(entry.name, entry.sample))
        out.append(
            _result(
                entry,
                "instantiate",
                True,
                f"sample validates; reeb = {sc.vec_str(S.reeb)}",
            )
        )
        _structure_checks(entry.name, S, out)
    except NotCosymplectic as exc:
        out.append(_result(entry, "instantiate", False, str(exc.report)))
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        out.append(_result(entry, "instantiate", False, f"{type(exc).__name__}: {exc}"))

    if entry.lsa is not None:
        out.extend(_verify_lsa(entry, make))
    for nf in entry.normal_forms:
        out.extend(_verify_normal_form(entry, nf, make, family))
    return out


def _verify_lsa(entry, make) -> list:
    out = []
    exp = entry.lsa
    ok_all = True
    details = []
    for lam in _LAM_SAMPLES:
        subs = {"lam": lam}
        L = entry.algebra(subs)
        alpha = exp.alpha.subs(subs)
        omega = exp.omega.subs(subs)
        got = make(L, alpha, omega).table
        want_entries = {
            ij: {k: sc.scalar_subs(sc.as_scalar(c), subs) for k, c in comps.items()}
            for ij, comps in exp.table.items()
        }
        want = LsaTable.from_dict(entry.dim, want_entries)
        if got != want:
            ok_all = False
            details.append(f"lam={lam}: computed {got.nonzero_entries()}")
    detail = "matches printed table at lam in {1, 2}" if ok_all else "; ".join(details)
    if exp.note:
        detail += f" [{exp.note}]"
    out.append(_result(entry, "lsa_table", ok_all, detail))
    if _known(entry, "lsa_printed_normal_form"):
        nf = entry.normal_forms[0]
        subs = {"lam": F(1)}
        S_nf = make(entry.algebra(subs), nf.alpha.subs(subs), nf.omega.subs(subs))
        table_nf = S_nf.table.nonzero_entries()
        out.append(
            _result(
                entry,
                "lsa_printed_normal_form",
                False,
                "printed normal form gives a different table: "
                + str([(i, j, sc.vec_str(v)) for i, j, v in table_nf]),
                flagged=True,
            )
        )
    return out


def _verify_normal_form(entry, nf, make, family: tuple) -> list:
    """The checks of one normal form; family holds the coefficient vectors
    of the entry's alpha and omega families."""
    out = []
    name = f"{entry.name}-{nf.label}"
    S_sym, rep = _make(make, entry.algebra(), nf.alpha, nf.omega)
    out.append(_result(name, "validate_symbolic", rep.ok, f"volume = {rep.volume}"))
    if S_sym is not None:
        reeb_ok = S_sym.reeb == nf.expected_reeb
        out.append(_result(name, "reeb", reeb_ok, f"reeb = {sc.vec_str(S_sym.reeb)}"))

    uses_lam = "lam" in cat.symbols(_vector(nf.alpha) + _vector(nf.omega))
    lam_values = _LAM_SAMPLES if uses_lam else (None,)
    all_ok = True
    for lam in lam_values:
        subs = {"lam": lam} if lam is not None else {}
        try:
            S = make(entry.algebra(subs), nf.alpha.subs(subs), nf.omega.subs(subs))
        except NotCosymplectic:
            all_ok = False
            continue
        _structure_checks(name, S, out, suffix=f"@lam={lam}" if lam is not None else "")
    out.append(_result(name, "validate_samples", all_ok))

    # membership of the normal form in its family
    subs = {"lam": F(1)}
    member = all(
        _in_span(rows, [_vector(form.subs(subs))])
        for rows, form in zip(family, (nf.alpha, nf.omega))
    )
    out.append(_result(name, "normal_in_family", member))

    if nf.witness_map is not None:
        lam_val = nf.witness_lam
        subs = {"lam": lam_val} if lam_val is not None else {}
        alpha1 = nf.alpha.subs(subs)
        omega1 = nf.omega.subs(subs)
        alpha2, omega2 = nf.witness_member
        L = entry.algebra()
        iso = check_isomorphism(L, L, nf.witness_map, alpha1, alpha2, omega1, omega2)
        out.append(
            _result(
                name,
                "witness_iso",
                iso.ok,
                f"normal form at lam={lam_val} vs family member: {iso}",
            )
        )
    return out


def _verify_heisenberg(entry) -> list:
    out = []
    for n, should_exist in ((1, True), (2, False), (3, False)):
        L = cat.heisenberg(n)
        res = exists_cosymplectic(L)
        ok = res.exists == should_exist
        detail = f"H_{2 * n + 1}: exists = {res.exists}"
        if not res.exists:
            detail += "; det Phi is identically zero over Z1 x Z2"
        elif res.witness:
            detail += f"; witness {sc.bindings_str(res.witness)}"
        if not should_exist:
            ok = ok and not res.det
        out.append(_result(entry, f"exists_H{2 * n + 1}", ok, detail))
    return out


def _maker():
    """``CosymplecticStructure.make`` for the checks of one entry, which
    share the structures it makes: each distinct cosymplectic triple is
    made, and so validated, once."""
    made: dict = {}

    def make(L, alpha, omega) -> CosymplecticStructure:
        key = (tuple(sorted(L.brackets.items())), alpha.coeffs, tuple(omega.coeffs.items()))
        if key not in made:
            made[key] = CosymplecticStructure.make(L, alpha, omega)
        return made[key]

    return make


def _make(make, L, alpha, omega) -> tuple:
    """(structure or None, validation report) from the one validation in
    ``make``."""
    try:
        S = make(L, alpha, omega)
    except NotCosymplectic as exc:
        return None, exc.report
    return S, S.report


def _verify_aff(entry) -> list:
    out = []
    make = _maker()
    L_sym = entry.algebra()
    jd = check_jacobi(L_sym)
    out.append(_result(entry, "jacobi", not jd, "holds for symbolic lam"))

    for lam in (F(0), F(1)):
        L = entry.algebra({"lam": lam})
        S, rep = _make(make, L, entry.alpha, entry.omega)
        check = f"validate_lam{lam}"
        detail = str(rep)
        if not rep.ok and rep.cocycle2_defect is not None:
            triples = sorted(
                (i + 1, j + 1, k + 1) for (i, j, k) in rep.cocycle2_defect.coeffs
            )
            detail += f"; omega not closed on {triples}"
        out.append(
            _result(entry, check, rep.ok, detail, flagged=not rep.ok and _known(entry, check))
        )
        out.append(
            _result(
                entry,
                f"nonsolvable_lam{lam}",
                not is_solvable(L),
                "derived series stabilizes at a nonzero subalgebra",
            )
        )
        if rep.ok:
            out.append(
                _result(entry, f"reeb_lam{lam}", S.reeb == sc.basis_vec(7, 6))
            )
            _structure_checks(entry.name, S, out, suffix=f"@lam={lam}")

    for lam in (F(0), F(1)):
        L = cat.aff_corrected_algebra(lam)
        S, rep = _make(make, L, entry.alpha, entry.omega)
        ok = rep.ok and not is_solvable(L)
        detail = f"corrected witness at lam={lam}: {rep}"
        if rep.ok:
            ok = ok and S.reeb == sc.basis_vec(7, 6)
            detail += f"; reeb = {sc.vec_str(S.reeb)}"
            if lam == 1:
                _structure_checks(entry.name, S, out, suffix="@corrected-lam=1")
        out.append(_result(entry, f"corrected_lam{lam}", ok, detail))
    return out


_CHECKS = {"family": _verify_family, "heisenberg": _verify_heisenberg, "aff": _verify_aff}


def _check(entry) -> list:
    """The checks of one entry as (entry, check, ok, flagged, detail)
    tuples, which ``marshal`` can send between processes."""
    return [(r.entry, r.check, r.ok, r.flagged, r.detail) for r in _CHECKS[entry.kind](entry)]


def _workers() -> int:
    """One process per usable CPU; one where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _take(queue: int):
    """The entry indices read from the queue pipe, one at a time, until it
    is empty."""
    while index := os.read(queue, _INDEX_BYTES):
        yield int.from_bytes(index, "little")


def _child(entries: list, queue: int, out: int, inherited: list):
    """Check the entries taken from the queue and send their results
    through out; never returns.  An entry that raises ends the work and is
    left unreported, so that the parent checks it again and raises."""
    try:
        for fd in inherited:
            os.close(fd)
        done = {}
        try:
            for i in _take(queue):
                done[i] = _check(entries[i])
        finally:
            with open(out, "wb") as fh:
                fh.write(marshal.dumps(done))
    finally:
        os._exit(0)


def _check_shared(entries: list, todo: list) -> dict:
    """{index: result tuples} for the entries of todo that some process
    checked.  This process and workers - 1 forked children take indices
    from one queue pipe, in the order of todo, until it is empty.  On every
    way out the queue is emptied, so no child starts another entry, the
    result pipes are closed and every child is reaped."""
    queue, w = os.pipe()
    try:
        os.write(w, b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in todo))
    finally:
        os.close(w)
    children: dict = {}  # pid -> read end of its result pipe
    try:
        for _ in range(min(_workers(), len(todo)) - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
                if pid == 0:
                    _child(entries, queue, w, [*children.values(), r])
                children[pid] = r
            except BaseException:
                os.close(r)
                raise
            finally:
                os.close(w)
        done = {i: _check(entries[i]) for i in _take(queue)}
        for r in children.values():
            with open(r, "rb", closefd=False) as fh:
                data = fh.read()
            if data:  # empty if the child was killed before it reported
                done.update(marshal.loads(data))
        return done
    finally:
        for _ in _take(queue):
            pass
        os.close(queue)
        for r in children.values():
            os.close(r)
        for pid in children:
            os.waitpid(pid, 0)


def verify_all() -> CatalogReport:
    entries = [cat.get_entry(name) for name in cat.list_entries()]
    # normal-form child entries are covered through their parents; the
    # largest dimensions go first, because cost follows dimension
    todo = sorted(
        (i for i, e in enumerate(entries) if e.kind in _CHECKS), key=lambda i: -entries[i].dim
    )
    done = _check_shared(entries, todo)
    for i in sorted(set(todo) - done.keys()):  # taken by a child, not reported
        done[i] = _check(entries[i])
    return CatalogReport([CheckResult(*r) for i in sorted(done) for r in done[i]])
