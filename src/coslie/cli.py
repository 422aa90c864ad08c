"""Command-line surface.

Exit codes: 0 = pass, 1 = mathematical failure (validation fails,
existence answer is NO, isomorphism check fails, catalog verification has
an undocumented failure), 2 = usage or parse error.

All output is deterministic: polynomials print in graded-lex order and
every collection is emitted in a fixed ordering, so identical inputs give
byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import catalog as cat
from . import scalars as sc
from .algfile import parse_algebra, parse_extension, parse_map, parse_params, parse_rational
from .cosymplectic import (
    CosymplecticStructure,
    biinvariance,
    exists_cosymplectic,
    left_symmetry_defect,
    phi_map,
    solve_reeb,
    to_symplectic,
    validate,
)
from .errors import (
    AlgFileError,
    ConditionsFail,
    CoslieError,
    MissingParam,
    NotCosymplectic,
    NotLieAlgebra,
    UnknownEntry,
)
from .extensions import construct_A, construct_B, construct_C
from .lie_core import check_isomorphism, check_jacobi
from .verify import verify_all

PASS, MATH_FAIL, USAGE_FAIL = 0, 1, 2


def _form_str(alpha) -> str:
    return "none" if alpha is None else sc.vec_str(alpha.coeffs, "e^")


def _omega_str(omega) -> str:
    if omega is None:
        return "none"
    parts = []
    for (i, j), c in sorted(omega.coeffs.items()):
        cs = str(c)
        head = f"e^{{{i + 1}{j + 1}}}"
        parts.append(head if cs == "1" else f"{cs} {head}")
    return " + ".join(parts) if parts else "0"


def _brackets_str(L) -> list:
    out = []
    for (i, j) in sorted(L.brackets):
        out.append(f"[e{i + 1},e{j + 1}] = {sc.vec_str(L.brackets[(i, j)])}")
    return out


def _read(path: str) -> str:
    # a non-UTF-8 byte reads as U+FFFD, which the parser rejects outside comments
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read()


def _inputs(args, *files) -> list:
    """Each (parser, path) of files parsed with ``--params`` bound; every
    name of ``--params`` must be a symbol of some file, and every algebra
    must satisfy the Jacobi identity (its differential rows, built here,
    serve the command after)."""
    params = parse_params(args.params)
    parsed = [parse(_read(path), params) for parse, path in files]
    unused = sorted(set(params).difference(*(p.symbols for p in parsed)))
    if unused:
        raise AlgFileError(f"--params binds no symbol of the input: {', '.join(unused)}", 0, 0)
    for p, (parse, path) in zip(parsed, files):
        if parse is parse_algebra and (defects := check_jacobi(p.algebra)):
            i, j, k = defects[0][:3]
            raise NotLieAlgebra(f"{path}: Jacobi identity fails on (e{i}, e{j}, e{k})")
    return parsed


def _load(args):
    [parsed] = _inputs(args, (parse_algebra, args.file))
    return parsed.algebra, parsed.alpha, parsed.omega


class Report:
    """Accumulates named checks plus a result payload, prints text or JSON."""

    def __init__(self, command: str, source: str):
        self.command = command
        self.source = source
        self.checks: list = []
        self.result: dict = {}
        self.lines: list = []
        self._show: list = []

    def check(self, name: str, ok: bool, defect=None, show=True):
        self.checks.append({"name": name, "pass": bool(ok), "defect": defect})
        self._show.append(show)

    def say(self, line: str):
        self.lines.append(line)

    def emit(self, as_json: bool) -> None:
        if as_json:
            payload = {
                "command": self.command,
                "input": self.source,
                "checks": self.checks,
                "result": self.result,
            }
            print(json.dumps(payload, indent=2, sort_keys=False, ensure_ascii=False))
        else:
            for c, show in zip(self.checks, self._show):
                if not show:
                    continue
                line = f"{c['name']}: {'ok' if c['pass'] else 'FAIL'}"
                if c["defect"]:
                    line += f" ({c['defect']})"
                print(line)
            for line in self.lines:
                print(line)


def _require_forms(alpha, omega):
    if alpha is None:
        raise AlgFileError("file has no alpha line", 0, 0)
    if omega is None:
        raise AlgFileError("file has no omega lines", 0, 0)


def _load_structure(args, r: Report):
    """The structure of the file, validated once, with the passing
    ``cosymplectic`` check recorded; None after emitting the failing
    check when the triple is not cosymplectic."""
    L, alpha, omega = _load(args)
    _require_forms(alpha, omega)
    try:
        S = CosymplecticStructure.make(L, alpha, omega)
    except NotCosymplectic as exc:
        r.check("cosymplectic", False, str(exc.report))
        r.emit(args.json)
        return None
    r.check("cosymplectic", True)
    return S


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(args) -> int:
    L, alpha, omega = _load(args)
    _require_forms(alpha, omega)
    rep = validate(L, alpha, omega)
    r = Report("validate", args.file)
    r.check("cocycle1", rep.cocycle1)
    r.check("cocycle2", rep.cocycle2)
    r.check("volume", rep.volume_nonzero, show=False)
    r.result["cosymplectic"] = rep.ok
    r.result["volume"] = str(rep.volume)
    r.say(f"volume: {rep.volume} ({'nonzero' if rep.volume_nonzero else 'zero'})")
    r.say(f"cosymplectic: {'YES' if rep.ok else 'NO'}")
    if rep.ok and not L.is_parametric() and not alpha.is_parametric() and not omega.is_parametric():
        xi = solve_reeb(phi_map(L, alpha, omega), alpha)
        r.result["reeb"] = sc.vec_str(xi)
        r.say(f"reeb: {sc.vec_str(xi)}")
    r.emit(args.json)
    return PASS if rep.ok else MATH_FAIL


def cmd_reeb(args) -> int:
    r = Report("reeb", args.file)
    S = _load_structure(args, r)
    if S is None:
        return MATH_FAIL
    r.result["reeb"] = sc.vec_str(S.reeb)
    r.say(f"reeb: {sc.vec_str(S.reeb)}")
    r.emit(args.json)
    return PASS


def cmd_lsa(args) -> int:
    r = Report("lsa", args.file)
    S = _load_structure(args, r)
    if S is None:
        return MATH_FAIL
    table = S.table
    defect = left_symmetry_defect(table, S.algebra)
    r.check("left_symmetric", defect["pass"])
    r.check("commutator", not defect["commutator"])
    entries = [
        {"i": i, "j": j, "value": sc.vec_str(v)} for i, j, v in table.nonzero_entries()
    ]
    r.result["products"] = entries
    for item in entries:
        r.say(f"e{item['i']}.e{item['j']} = {item['value']}")
    if not entries:
        r.say("zero product table")
    r.emit(args.json)
    return PASS if defect["pass"] else MATH_FAIL


def cmd_biinv(args) -> int:
    r = Report("biinv", args.file)
    S = _load_structure(args, r)
    if S is None:
        return MATH_FAIL
    b = biinvariance(S)
    for k in (1, 2, 3, 4):
        r.check(f"condition{k}", k not in b.failed_conditions)
    r.check("conditions_iff_associative", b.ok == b.associative)
    r.result["biinvariant"] = b.ok
    r.result["associative"] = b.associative
    r.say(f"bi-invariant: {'YES' if b.ok else 'NO'}")
    r.say(f"associative: {'YES' if b.associative else 'NO'}")
    r.emit(args.json)
    return PASS if b.ok else MATH_FAIL


def cmd_exists(args) -> int:
    L, _, _ = _load(args)
    res = exists_cosymplectic(L)
    r = Report("exists", args.file)
    r.result["exists"] = res.exists
    r.result["z1_dim"] = res.z1_dim
    r.result["z2_dim"] = res.z2_dim
    if res.exists:
        r.result["witness"] = {k: str(v) for k, v in sorted(res.witness.items())}
        r.say("YES: witness cocycles found")
        r.say(f"alpha = {_form_str(res.alpha)}")
        r.say(f"omega = {_omega_str(res.omega)}")
    else:
        r.say("NO: det Phi == 0 identically over Z1 x Z2")
    r.emit(args.json)
    return PASS if res.exists else MATH_FAIL


def cmd_symplectize(args) -> int:
    L, alpha, omega = _load(args)
    _require_forms(alpha, omega)
    pair = to_symplectic(L, alpha, omega)
    c2, det, ok = pair.validate()
    r = Report("symplectize", args.file)
    r.check("cocycle2", c2)
    r.check("nondegenerate", bool(det), f"det = {det}")
    r.result["symplectic"] = ok
    r.say(f"dim {pair.algebra.dim} extension:")
    for line in _brackets_str(pair.algebra):
        r.say("  " + line)
    r.say(f"omega = {_omega_str(pair.omega)}")
    r.say(f"symplectic: {'YES' if ok else 'NO'}")
    r.emit(args.json)
    return PASS if ok else MATH_FAIL


def cmd_extend(args) -> int:
    base, ext = _inputs(args, (parse_algebra, args.file), (parse_extension, args.data))
    L, alpha, omega = base.algebra, base.alpha, base.omega
    _require_forms(alpha, omega)
    if ext.dim != L.dim:
        raise AlgFileError("extension data dimension != base dimension", 0, 0)
    alpha_d = parse_rational(args.alpha_d)
    r = Report("extend", f"{args.file} + {args.data}")
    try:
        if args.construction == "A":
            res = construct_A(L, alpha, omega, ext.data)
        elif args.construction == "B":
            res = construct_B(L, alpha, omega, ext.data, alpha_d=alpha_d)
        else:
            res = construct_C(L, alpha, omega, ext.data.phi, ext.data.v, alpha_d=alpha_d)
    except ConditionsFail as exc:
        r.check("conditions", False, "; ".join(str(f) for f in exc.failures))
        r.emit(args.json)
        return MATH_FAIL
    S = res.structure
    r.check("conditions", True)
    r.check("validates", True)
    r.result["dim"] = S.dim
    r.result["brackets"] = _brackets_str(S.algebra)
    r.result["alpha"] = _form_str(S.alpha)
    r.result["omega"] = _omega_str(S.omega)
    r.result["reeb"] = sc.vec_str(S.reeb)
    r.say(f"dim {S.dim} cosymplectic extension:")
    for line in _brackets_str(S.algebra):
        r.say("  " + line)
    r.say(f"alpha = {_form_str(S.alpha)}")
    r.say(f"omega = {_omega_str(S.omega)}")
    r.say(f"reeb: {sc.vec_str(S.reeb)}")
    r.emit(args.json)
    return PASS


def cmd_isocheck(args) -> int:
    one, two, witness = _inputs(
        args, (parse_algebra, args.file1), (parse_algebra, args.file2), (parse_map, args.map)
    )
    if not one.algebra.dim == two.algebra.dim == witness.dim:
        raise AlgFileError("algebra and map dimensions differ", 0, 0)
    rep = check_isomorphism(
        one.algebra, two.algebra, witness.map, one.alpha, two.alpha, one.omega, two.omega
    )
    r = Report("isocheck", f"{args.file1} ~ {args.file2}")
    r.check("invertible", rep.invertible)
    r.check("bracket_preserving", not rep.bracket_defects)
    if one.alpha is not None and two.alpha is not None:
        r.check("alpha_pullback", rep.alpha_defect is None)
    if one.omega is not None and two.omega is not None:
        r.check("omega_pullback", not rep.omega_defects)
    r.result["isomorphic"] = rep.ok
    r.say(f"isomorphic: {'YES' if rep.ok else 'NO'}")
    r.emit(args.json)
    return PASS if rep.ok else MATH_FAIL


def cmd_catalog_list(args) -> int:
    for name in cat.list_entries():
        print(name)
    return PASS


def cmd_catalog_export(args) -> int:
    params = parse_params(args.params)
    try:
        entry = cat.get_entry(args.name)
    except UnknownEntry as exc:  # an unknown name is a usage error, like an unknown parameter
        raise AlgFileError(str(exc), 0, 0) from None
    unused = sorted(set(params).difference(entry.param_names()))
    if unused:
        raise AlgFileError(
            f"--params binds no parameter of {args.name}: {', '.join(unused)}", 0, 0
        )
    try:
        text = cat.export_entry(args.name, params)
    except MissingParam as exc:  # a missing value is a usage error, like a bad one
        raise AlgFileError(str(exc), 0, 0) from None
    print(text, end="")
    return PASS


def cmd_catalog_verify_all(args) -> int:
    report = verify_all()
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=False, ensure_ascii=False))
    else:
        for r in report.results:
            print(r.line())
        print(
            f"summary: {len(report.results)} checks, "
            f"{len(report.failures())} failures, {len(report.flagged())} flagged"
        )
    return PASS if report.ok() else MATH_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared by
    every later one: parsing keeps no state between calls, and each returns
    a fresh namespace.  Each command's namespace carries its own parser as
    ``parser``, which reports the arguments that command does not take."""
    parser = argparse.ArgumentParser(
        prog="coslie",
        description="Exact-arithmetic toolkit for cosymplectic Lie algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def json_flag(p):
        p.add_argument("--json", action="store_true", help="machine-readable report")

    def params_flag(p):
        p.add_argument("--params", default="", help="comma-separated name=p/q bindings")

    def common(p):
        json_flag(p)
        params_flag(p)

    for name, fn, help_text in (
        ("validate", cmd_validate, "check the three structure conditions"),
        ("reeb", cmd_reeb, "compute the Reeb vector"),
        ("lsa", cmd_lsa, "compute the left-symmetric product table"),
        ("biinv", cmd_biinv, "bi-invariance conditions and associativity"),
        ("exists", cmd_exists, "decide existence of a cosymplectic structure"),
        ("symplectize", cmd_symplectize, "one-dimensional central extension carrying the symplectic form"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file")
        common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("extend", help="run a double-extension construction")
    p.add_argument("file", help="base algebra file with alpha and omega")
    p.add_argument("--construction", choices=("A", "B", "C"), required=True)
    p.add_argument("--data", required=True, help="extension data file")
    p.add_argument("--alpha-d", default="0", help="value p/q of alpha(d) for B and C")
    common(p)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("isocheck", help="verify an isomorphism witness")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("map", help="witness map file")
    common(p)
    p.set_defaults(fn=cmd_isocheck)

    actions = sub.add_parser("catalog", help="catalog operations").add_subparsers(
        dest="action", required=True
    )
    actions.add_parser("list", help="print every entry name").set_defaults(fn=cmd_catalog_list)
    p = actions.add_parser("export", help="print an entry as an algebra file")
    p.add_argument("name")
    params_flag(p)
    p.set_defaults(fn=cmd_catalog_export)
    p = actions.add_parser("verify-all", help="recompute and check every catalog entry")
    json_flag(p)
    p.set_defaults(fn=cmd_catalog_verify_all)
    for p in (*sub.choices.values(), *actions.choices.values()):
        p.set_defaults(parser=p)  # the innermost command's parser wins
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:
        # the top-level parser takes no option but -h, so a leftover before
        # the command name is its own, and the rest are the command's
        argv = sys.argv[1:] if argv is None else list(argv)
        owner = args.parser if argv[0] == args.command else parser
        owner.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.fn(args)
    except AlgFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_FAIL
    except OSError as exc:  # an input file that is missing, a directory or unreadable
        if exc.filename is None:  # not a file, e.g. a closed stdout
            raise
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return USAGE_FAIL
    except CoslieError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return MATH_FAIL


if __name__ == "__main__":
    sys.exit(main())
