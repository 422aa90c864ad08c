"""Seeded inputs for the benchmark workloads.

``Stream(workload, seed).round(r)`` gives round r of a workload: a list of
operations, each with the files the program reads, its command line and the
facts the oracle needs.  Every round has the same mix of case kinds (the
``exists`` workload adds its abelian cases to rounds 0-2 only).  Inputs
come only from the workload, seed, round and slot: the same seed gives
byte-identical files, and no two operations of a run read the same input
(except the fixed built-in catalog of the ``catalog`` workload).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import alg
from alg import F, ZERO, Structure

DATA = Path(__file__).resolve().parent / "data"

# Family parameters vanish with probability ZERO_SHARE (drawn per slot,
# not per seed) and otherwise take a seeded value from NONZERO_POOL; the
# validity check rejects draws where the structure degenerates.
ZERO_SHARE = 0.25
NONZERO_POOL = [F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3)]

WORKLOADS = ("catalog", "exists", "structures", "symbolic")


@dataclass
class Op:
    name: str  # unique within a run; the stem of its files
    kind: str  # case kind: the oracle and the grouping in the report
    argv: list  # command line after the program name; "{dir}" is the work dir
    files: dict = field(default_factory=dict)  # file name -> text
    facts: dict = field(default_factory=dict)  # dim, nnz, dense, symbolic, expected
    ref: dict = field(default_factory=dict)  # what the oracle checks against
    fresh_process: bool = False  # run in a fresh interpreter instead of in-process


# ---------------------------------------------------------------------------
# The catalog snapshot


@dataclass
class Entry:
    name: str
    nondeg: str  # printed polynomial, "-" when none is printed
    lin: dict  # alg.parse_linear_alg form

    @property
    def dim(self) -> int:
        return self.lin["dim"]

    def free_symbols(self) -> list:
        """Symbols a symbolic file may leave free: those not in alpha.

        A free symbol in alpha makes ``lsa`` fail (the kernel reduction
        divides by alpha's pivot coefficient and ``det_poly`` then meets
        quotients it cannot divide), so such files are left out; see
        test_perfbench.test_free_symbol_in_alpha_breaks_lsa.
        """
        in_alpha = set()
        for coeff in self.lin["alpha"].values():
            in_alpha.update(coeff)
        return [s for s in alg.symbols(self.lin) if s not in in_alpha]


def load_catalog() -> list:
    entries, name, nondeg, lines = [], None, None, []

    def flush():
        if name is not None:
            entries.append(Entry(name, nondeg, alg.parse_linear_alg("\n".join(lines))))

    for line in (DATA / "catalog.alg").read_text(encoding="utf-8").splitlines():
        if line.startswith("# entry "):
            flush()
            name, nondeg, lines = line[len("# entry ") :], "-", []
        elif line.startswith("# nondeg "):
            nondeg = line[len("# nondeg ") :]
        elif name is not None:
            lines.append(line)
    flush()
    return entries


# ---------------------------------------------------------------------------
# Drawing structures and bases


def draw_structure(shape: random.Random, rng: random.Random, entry: Entry, keep: str = None) -> tuple:
    """(values, structure) at a parameter point where the printed
    nondegeneracy polynomial is nonzero and the structure is cosymplectic.

    ``shape`` picks which parameters vanish, ``rng`` the nonzero values.
    With ``keep`` the structure must also stay cosymplectic with that
    symbol left free: Jacobi and closedness are at most quadratic in it, so
    three values decide them, and one nonzero determinant decides Phi.
    """
    names = alg.symbols(entry.lin)
    for _ in range(100):
        support = {s for s in names if s == keep or shape.random() >= ZERO_SHARE}
        for _ in range(10):
            values = {s: rng.choice(NONZERO_POOL) if s in support else ZERO for s in names}
            if entry.nondeg != "-" and alg.eval_scalar(entry.nondeg, values) == 0:
                continue
            s = alg.instantiate(entry.lin, values)
            if not alg.is_cosymplectic(s):
                continue
            if keep is not None and not all(
                alg.jacobi_holds(t) and alg.alpha_closed(t, t.alpha) and alg.omega_closed(t, t.omega)
                for t in (alg.instantiate(entry.lin, {**values, keep: F(x)}) for x in (0, 1, -1))
            ):
                continue
            return values, s
    raise RuntimeError(f"no valid parameter point for {entry.name}")


def dense_basis(shape: random.Random, rng: random.Random, n: int) -> list:
    """L U Q: unit-triangular L and U from ``shape`` with off-diagonal
    entries -1, 0 or 1 (dense, unimodular, small entries), times a signed
    permutation Q from ``rng``."""
    low = [[F(1) if i == j else F(shape.choice((-1, 0, 1))) if i > j else ZERO for j in range(n)] for i in range(n)]
    up = [[F(1) if i == j else F(shape.choice((-1, 0, 1))) if i < j else ZERO for j in range(n)] for i in range(n)]
    lu = [[sum((low[i][k] * up[k][j] for k in range(n)), ZERO) for j in range(n)] for i in range(n)]
    perm = rng.sample(range(n), n)
    sign = [rng.choice((1, -1)) for _ in range(n)]
    return [[sign[j] * lu[i][perm[j]] for j in range(n)] for i in range(n)]


def sparse_basis(rng: random.Random, n: int) -> list:
    """A permutation with a seeded scaling of each basis vector."""
    perm = rng.sample(range(n), n)
    return [[rng.choice(NONZERO_POOL) if perm[j] == i else ZERO for j in range(n)] for i in range(n)]


def heisenberg(n: int) -> Structure:
    """H_{2n+1}: [e_i, e_{n+i}] = e_{2n+1}."""
    dim = 2 * n + 1
    return Structure(dim, {(i, n + i): alg.basis(dim, dim - 1) for i in range(n)})


# ---------------------------------------------------------------------------
# The worked extension families on the base g_{2.1} + R ([e1, e2] = e1,
# alpha = e^3, omega = e^{12}); each construction's hypotheses hold for every
# member.  Each op gets its own seeded rescaling of the base basis, with the
# data carried along, so no two ops read the same base file.

GBAR = Structure(3, {(0, 1): (F(1), ZERO, ZERO)}, (ZERO, ZERO, F(1)), {(0, 1): F(1)})


def extension_family(construction: str, x: list) -> dict:
    """Extension data of the family member with parameters x (5 values)."""
    if construction == "A":
        b, f, lam3, z = x[:4]
        phi = [[ZERO, b, ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, f]]
        return {"phi": phi, "lam": [ZERO, ZERO, lam3], "v": [ZERO, ZERO, z], "t": -f, "theta": {}}
    if construction == "B":
        a, t, b, lam2, lam3 = x
        phi = [[a, b, ZERO], [ZERO, ZERO, ZERO], [ZERO, ZERO, ZERO]]
        # theta = omega_phi = a e^{12}
        return {"phi": phi, "lam": [a * a - t * a, lam2, lam3], "v": [ZERO] * 3, "t": t,
                "theta": {(0, 1): a}}
    b, c, f, z = x[:4]
    phi = [[ZERO, b, ZERO], [ZERO, ZERO, ZERO], [ZERO, c, f]]
    return {"phi": phi, "lam": [ZERO] * 3, "v": [ZERO, ZERO, z], "t": ZERO, "theta": {}}


def rescale_extension(data: dict, s: list) -> dict:
    """The same data in the basis f_i = s_i e_i."""
    n = len(s)
    return {
        "phi": [[data["phi"][i][j] * s[j] / s[i] for j in range(n)] for i in range(n)],
        "lam": [data["lam"][i] * s[i] for i in range(n)],
        "v": [data["v"][i] / s[i] for i in range(n)],
        "t": data["t"],
        "theta": {(i, j): c * s[i] * s[j] for (i, j), c in data["theta"].items()},
    }


def ext_text(data: dict) -> str:
    def pairs(vec):
        return " ".join(f"{c} {k + 1}" for k, c in enumerate(vec) if c)

    n = len(data["v"])
    lines = [f"dim {n}"]
    for i in range(n):
        col = [data["phi"][k][i] for k in range(n)]
        if any(col):
            lines.append(f"phi {i + 1} : {pairs(col)}")
    if any(data["lam"]):
        lines.append(f"lambda : {pairs(data['lam'])}")
    if any(data["v"]):
        lines.append(f"v : {pairs(data['v'])}")
    if data["t"]:
        lines.append(f"t = {data['t']}")
    for (i, j), c in sorted(data["theta"].items()):
        lines.append(f"theta {i + 1} {j + 1} : {c}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Workload streams


class Stream:
    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.by_dim = {d: [e for e in load_catalog() if e.dim == d] for d in (3, 5, 7)}
        self.seen = set()

    def entry(self, dim: int, k: int, symbolic: bool = False) -> Entry:
        """The k-th catalog entry of a dimension, cyclically.  Entries follow
        the round number, not the seed, so runs of equal length cover the
        same entries and the seed varies only parameters and bases."""
        entries = [e for e in self.by_dim[dim] if e.free_symbols() or not symbolic]
        return entries[k % len(entries)]

    def round(self, r: int) -> list:
        """Round r.  Each slot builds its op from two generators: ``shape``
        follows the round and slot only and fixes what sets an op's cost
        (the catalog entry's vanishing parameters, the free symbol, the
        dense basis pattern); ``rng`` also follows the seed and picks the
        nonzero values and how the basis is permuted and scaled.  So seeds
        change the inputs but hardly their cost.  A slot draws again while
        any of its files repeats an earlier input."""
        ops = []
        for slot, build in getattr(self, "_" + self.workload)(r):
            for attempt in range(100):
                shape = random.Random(f"coslie-bench/{self.workload}/{r}/{slot}/{attempt}")
                rng = random.Random(f"coslie-bench/{self.workload}/{self.seed}/{r}/{slot}/{attempt}")
                op = build(shape, rng, f"r{r}-{slot}")
                texts = list(op.files.values())
                if not self.seen.intersection(texts):
                    break
            else:
                raise RuntimeError(f"no new input for r{r}-{slot}")
            self.seen.update(texts)
            ops.append(op)
        return ops

    # -- catalog: the built-in verification, one fresh process per op ----
    def _catalog(self, r: int) -> list:
        def build(shape, rng, name):
            facts = {"dim": "3-7", "dense": False, "symbolic": True, "expected": "ok"}
            return Op(name, "catalog", ["catalog", "verify-all", "--json"], facts=facts,
                      fresh_process=True)

        return [("verify", build)]

    # -- exists: known answers, NO on Heisenberg, YES on catalog sums ----
    def _exists(self, r: int) -> list:
        def case(kind, dense, expected, make):
            def build(shape, rng, name):
                s = make(shape, rng)
                p = dense_basis(shape, rng, s.dim) if dense else sparse_basis(rng, s.dim)
                text = alg.alg_text(alg.transform(s, p))
                facts = {"dim": s.dim, "nnz": _nnz(text), "dense": dense, "symbolic": False,
                         "expected": "YES" if expected else "NO"}
                return Op(name, kind, ["exists", "{dir}/" + name + ".alg", "--json"],
                          {name + ".alg": text}, facts, {"exists": expected, "text": text})

            return kind, build

        def catalog_sum(k):
            # a seeded point of a 5-dimensional catalog family, plus R^{2k}
            entry = self.entry(5, 3 * r + k)
            return lambda shape, rng: alg.direct_sum_abelian(draw_structure(shape, rng, entry)[1], 2 * k)

        # NO cases.  Above dimension 5 only permutation-and-scaling changes:
        # under a dense change the symbolic determinant of H7 costs ~100x more.
        slots = [
            case("no-h5-dense", True, False, lambda shape, rng: heisenberg(2)),
            case("no-h7-sparse", False, False, lambda shape, rng: heisenberg(3)),
            case("no-h9-sparse", False, False, lambda shape, rng: heisenberg(4)),
            case("no-h11-sparse", False, False, lambda shape, rng: heisenberg(5)),
        ] + [case(f"yes-d{5 + 2 * k}-dense", True, True, catalog_sum(k)) for k in (0, 1, 2)]
        if r < 3:
            # R^13, R^11, R^9 once each: an abelian algebra is the same file
            # under any change of basis, and inputs must not repeat.
            n = 13 - 2 * r
            slots.append(case(f"yes-abelian-d{n}", False, True, lambda shape, rng: Structure(n, {})))
        return slots

    # -- structures: the per-file commands on rational inputs -------------
    def _structures(self, r: int) -> list:
        def command(cmd, entry):
            def build(shape, rng, name):
                _, s = draw_structure(shape, rng, entry)
                t = alg.transform(s, dense_basis(shape, rng, entry.dim))
                text = alg.alg_text(t)
                facts = {"dim": entry.dim, "nnz": _nnz(text), "dense": True, "symbolic": False,
                         "entry": entry.name, "expected": "any" if cmd == "biinv" else "YES"}
                return Op(name, cmd, [cmd, "{dir}/" + name + ".alg", "--json"],
                          {name + ".alg": text}, facts, {"structure": t})

            return build

        def extend(c):
            def build(shape, rng, name):
                data = extension_family(c, [rng.choice(NONZERO_POOL) for _ in range(5)])
                scale = [rng.choice(NONZERO_POOL) for _ in range(3)]
                diag = [[scale[i] if i == j else ZERO for j in range(3)] for i in range(3)]
                base = alg.alg_text(alg.transform(GBAR, diag))
                text = ext_text(rescale_extension(data, scale))
                argv = ["extend", "{dir}/" + name + ".alg", "--construction", c,
                        "--data", "{dir}/" + name + ".ext", "--json"]
                if c != "A":
                    argv.append(f"--alpha-d={rng.choice(NONZERO_POOL)}")
                facts = {"dim": 3, "nnz": _nnz(base) + _nnz(text), "dense": False,
                         "symbolic": False, "expected": "YES", "construction": c}
                return Op(name, "extend", argv, {name + ".alg": base, name + ".ext": text}, facts)

            return build

        slots = [
            (f"{cmd}{dim}", command(cmd, self.entry(dim, 4 * r + c)))
            for dim in (3, 5, 7)
            for c, cmd in enumerate(("validate", "reeb", "lsa", "biinv"))
        ]
        return slots + [("extend" + c, extend(c)) for c in "ABC"]

    # -- symbolic: one family parameter left free --------------------------
    def _symbolic(self, r: int) -> list:
        def command(cmd, entry):
            def build(shape, rng, name):
                keep = shape.choice(entry.free_symbols())
                values, _ = draw_structure(shape, rng, entry, keep)
                # Permutation-and-scaling changes only: an omega line holds
                # one token, and under a dense change the dimension-7 lsa
                # takes ~4 s, against ~0.3 s here.
                p = sparse_basis(rng, entry.dim)
                s0 = alg.transform(alg.instantiate(entry.lin, {**values, keep: ZERO}), p)
                s1 = alg.transform(alg.instantiate(entry.lin, values, part=keep), p)
                # the oracle's seeded rational point, where Phi is invertible
                at = next(v for v in rng.sample(NONZERO_POOL, len(NONZERO_POOL))
                          if alg.is_cosymplectic(alg.instantiate(entry.lin, {**values, keep: v})))
                t_at = alg.transform(alg.instantiate(entry.lin, {**values, keep: at}), p)
                text = alg.alg_text(s0, keep, s1)
                facts = {"dim": entry.dim, "nnz": _nnz(text), "dense": False, "symbolic": True,
                         "entry": entry.name, "free": keep, "expected": "YES"}
                return Op(name, "sym-" + cmd, [cmd, "{dir}/" + name + ".alg", "--json"],
                          {name + ".alg": text}, facts, {"structure": t_at, "values": {keep: at}})

            return build

        return [
            (f"{cmd}{dim}", command(cmd, self.entry(dim, 3 * r + c, symbolic=True)))
            for dim in (3, 5, 7)
            for c, cmd in enumerate(("validate", "reeb", "lsa"))
        ]


def _nnz(text: str) -> int:
    """Nonzero coefficients written in an input file (after its dim line):
    coefficient/index pairs, or one coefficient on omega, theta and t lines."""
    return sum(
        max(1, len(line.split(" : ", 1)[-1].split()) // 2) for line in text.splitlines()[1:]
    )
