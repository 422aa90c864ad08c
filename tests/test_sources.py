from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import coslie

SOURCES = sorted(Path(coslie.__file__).parent.glob("*.py"))


def imports_random(tree: ast.AST) -> bool:
    """True if the module imports ``random`` by ``import``, ``from ...
    import`` or ``__import__("random")``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "random" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "random":
                return True
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "__import__"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "random"
        ):
            return True
    return False


def test_the_scan_sees_every_import_form():
    for text in (
        "import random",
        "import os, random as r",
        "from random import Random",
        "def f():\n    return __import__('random').Random(1)",
    ):
        assert imports_random(ast.parse(text)), text
    for text in ("import randomness", "from . import random_tools", "x = 'random'"):
        assert not imports_random(ast.parse(text)), text


def test_no_module_but_verify_samples_at_random():
    """Every verdict of the engine is exact, so no module imports ``random``.

    ``verify.py`` is the one exception.  The nondegeneracy policy of
    ``catalog verify-all`` accepts a printed condition as
    vanishing-equivalent to the computed volume exactly when each divides a
    power of the other; a pair whose radicals differ is still compared at
    seeded sample points.
    """
    assert len(SOURCES) > 1
    offenders = [
        p.name
        for p in SOURCES
        if p.name != "verify.py" and imports_random(ast.parse(p.read_text(encoding="utf-8")))
    ]
    assert offenders == []


SCALAR_TYPES = {"Fraction", "Poly", "RatFn"}


def scalar_type_tests(tree: ast.AST) -> list:
    """Line numbers of ``isinstance`` calls against a scalar type, named
    directly (``Poly``) or through a module (``sc.Poly``), alone or in a
    tuple."""

    def names(node):
        if isinstance(node, ast.Tuple):
            return [n for elt in node.elts for n in names(elt)]
        if isinstance(node, ast.Name):
            return [node.id]
        if isinstance(node, ast.Attribute):
            return [node.attr]
        return []

    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and SCALAR_TYPES & set(names(node.args[1]))
    ]


def test_the_scan_sees_every_scalar_type_test():
    for text in (
        "isinstance(x, Fraction)",
        "isinstance(x, sc.Poly)",
        "y = isinstance(x, (int, scalars.RatFn))",
    ):
        assert scalar_type_tests(ast.parse(text)), text
    for text in ("isinstance(x, LsaTable)", "isinstance(x, (int, tuple))", "Poly.const(1)"):
        assert not scalar_type_tests(ast.parse(text)), text


def test_cosymplectic_keeps_one_path_for_every_scalar_type():
    """Product tables, their identities and the existence decision use ring
    operations only, and so do the Lie and form layers under them (brackets,
    Jacobi, derivations, differentials, twists) and the double extensions
    built on them; which scalar type stands behind a value is the business
    of ``scalars``, so ``cosymplectic``, ``lie_core``, ``exterior`` and
    ``extensions`` never test for one."""
    layers = ("cosymplectic.py", "lie_core.py", "exterior.py", "extensions.py")
    paths = [p for p in SOURCES if p.name in layers]
    assert sorted(p.name for p in paths) == sorted(layers)
    for path in paths:
        assert scalar_type_tests(ast.parse(path.read_text(encoding="utf-8"))) == [], path.name


def test_catalog_and_verify_leave_scalar_types_to_scalars():
    """The catalog reads a normal form's volume as it comes, and the
    nondegeneracy policy of ``verify`` asks ``scalars`` whether a quotient
    is rational: neither module tests for a scalar type."""
    for name in ("catalog.py", "verify.py"):
        [path] = [p for p in SOURCES if p.name == name]
        assert scalar_type_tests(ast.parse(path.read_text(encoding="utf-8"))) == [], name


CONSTANT_POLY_HELPERS = {"is_constant", "constant_value", "to_fraction"}


def constant_poly_helpers(tree: ast.AST) -> list:
    """Line numbers where a module defines or uses a helper that only a
    constant Poly needs: ``is_constant``, ``constant_value`` and
    ``to_fraction`` under any owner, and ``const`` defined anywhere or read
    off ``Poly`` (also through a module)."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            hit = node.name in CONSTANT_POLY_HELPERS or node.name == "const"
        elif isinstance(node, ast.Attribute):
            owner = getattr(node.value, "attr", getattr(node.value, "id", None))
            hit = node.attr in CONSTANT_POLY_HELPERS or (node.attr == "const" and owner == "Poly")
        elif isinstance(node, ast.Name):
            hit = node.id in CONSTANT_POLY_HELPERS
        elif isinstance(node, ast.ImportFrom):
            hit = any(a.name in CONSTANT_POLY_HELPERS for a in node.names)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_sees_every_constant_poly_helper():
    for text in (
        "class Poly:\n    @staticmethod\n    def const(value):\n        return value",
        "def is_constant(self):\n    return not self.variables",
        "x = sc.Poly.const(1)",
        "one = Poly.const",
        "if p.is_constant():\n    v = p.constant_value()",
        "v = sc.to_fraction(s)",
        "from .scalars import to_fraction",
        "values = map(to_fraction, values)",
    ):
        assert constant_poly_helpers(ast.parse(text)), text
    for text in (
        "x = sc.ONE",
        "x = Poly.var('x')",
        "c = self.const",
        "ok = sc.is_rational(q)",
        "v = Fraction(1)",
        "def constant_term(p):\n    return p",
    ):
        assert constant_poly_helpers(ast.parse(text)) == [], text


def test_no_module_keeps_a_constant_poly_helper():
    """A rational is always a ``Fraction`` and a ``Poly`` always has a
    variable, so no module asks whether a Poly is constant or turns one
    into its Fraction."""
    offenders = {
        p.name: lines
        for p in SOURCES
        if (lines := constant_poly_helpers(ast.parse(p.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


def substitutions(tree: ast.AST) -> list:
    """Line numbers of calls that substitute values for symbols: a
    ``.subs(...)`` method call or ``scalar_subs``, named directly or
    through a module."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr in ("subs", "scalar_subs"))
            or (isinstance(node.func, ast.Name) and node.func.id == "scalar_subs")
        )
    ]


def definitions(tree: ast.AST, name: str) -> list:
    """Line numbers of the functions and classes called name."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name == name
    ]


def test_the_scans_see_substitutions_and_definitions():
    for text in ("L.subs(p)", "x = sc.scalar_subs(c, p)", "scalar_subs(c, p)", "f(a.b.subs({}))"):
        assert substitutions(ast.parse(text)), text
    for text in ("subs = 1", "L.subs", "substitute(c)", "parse_algebra(text, params)"):
        assert not substitutions(ast.parse(text)), text
    assert definitions(ast.parse("def form_twist(t, p):\n    pass"), "form_twist") == [1]
    assert definitions(ast.parse("class A:\n    def form_twist(self):\n        pass"), "form_twist")
    used = "from .exterior import form_twist\nform_twist(t, p)"
    assert not definitions(ast.parse(used), "form_twist")


def test_parameters_are_bound_by_the_parser_alone():
    """``--params`` is bound where the files are read, in ``algfile``; the
    CLI substitutes no value itself."""
    [path] = [p for p in SOURCES if p.name == "cli.py"]
    assert substitutions(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_one_module_defines_the_form_twist():
    owners = [
        p.name
        for p in SOURCES
        if definitions(ast.parse(p.read_text(encoding="utf-8")), "form_twist")
    ]
    assert owners == ["exterior.py"]


def private_names_from(tree: ast.AST, module: str) -> list:
    """The ``_``-prefixed names that tree takes from the package module
    ``module``: imported (``from .module import _x``, ``from
    coslie.module import _x``) or read off the module (``module._x`` after
    ``from . import module``, under any alias)."""
    names, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == module:
                names += [a.name for a in node.names if a.name.startswith("_")]
            elif node.module in (None, "coslie"):
                aliases |= {a.asname or a.name for a in node.names if a.name == module}
    return names + [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
        and node.attr.startswith("_")
    ]


def test_the_scan_sees_private_names_of_a_module():
    for text in (
        "from .algfile import _rational",
        "from coslie.algfile import parse_algebra, _Reader as R",
        "from . import algfile as af\naf._rational('1')",
        "from coslie import algfile\nx = algfile._GRAMMAR",
    ):
        assert private_names_from(ast.parse(text), "algfile"), text
    for text in (
        "from .algfile import parse_params, parse_rational",
        "from .verify import _vec_str",
        "from . import algfile\nalgfile.parse_algebra(t)",
        "from . import verify\nverify._vec_str(v)",
    ):
        assert not private_names_from(ast.parse(text), "algfile"), text


def test_cli_reads_files_and_values_through_the_public_parsers():
    """The grammar of files and of command-line values (``--params``,
    ``--alpha-d``) is ``algfile``'s; ``cli`` calls its public parsers and
    takes none of its private helpers."""
    [path] = [p for p in SOURCES if p.name == "cli.py"]
    assert private_names_from(ast.parse(path.read_text(encoding="utf-8")), "algfile") == []


def test_no_module_takes_a_private_name_from_another():
    """Each package module is a client of the others: what it takes from
    them, such as the report format of vectors (``scalars.vec_str``) in
    ``cli`` or the column reader of numerator matrices (``scalars.column``)
    in ``cosymplectic``, is public."""
    taken = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        taken += [
            (path.stem, other.stem, name)
            for other in SOURCES
            if other != path
            for name in private_names_from(tree, other.stem)
        ]
    assert taken == []


def catalog_data_built_in_python(tree: ast.AST) -> list:
    """Line numbers where a module writes catalog data as Python: any use
    of ``Poly.var`` (called or aliased), ``LinearMap.from_columns`` on
    literal columns, or a ``CatalogEntry`` call with a literal name other
    than the Heisenberg entry's."""

    def read_off(node, owner, attr):
        """True if node is ``owner.attr``, also through a module."""
        return (
            isinstance(node, ast.Attribute)
            and node.attr == attr
            and getattr(node.value, "attr", getattr(node.value, "id", None)) == owner
        )

    def literal_name(call):
        values = [k.value for k in call.keywords if k.arg == "name"] + call.args[:1]
        return any(isinstance(v, ast.Constant) and v.value != "Heisenberg" for v in values)

    return [
        node.lineno
        for node in ast.walk(tree)
        if read_off(node, "Poly", "var")
        or (
            isinstance(node, ast.Call)
            and (
                (
                    read_off(node.func, "LinearMap", "from_columns")
                    and any(isinstance(a, (ast.List, ast.Tuple)) for a in node.args)
                )
                or (getattr(node.func, "id", None) == "CatalogEntry" and literal_name(node))
            )
        )
    ]


def test_the_scan_sees_catalog_data_written_in_python():
    for text in (
        "P = sc.Poly.var",
        "Poly.var('lam')",
        "m = LinearMap.from_columns([(1, 0), (0, 1)])",
        'e = CatalogEntry(name="g_{3.1}", dim=3, kind="family")',
        'e = CatalogEntry("A_{5,1}", 5, "family")',
    ):
        assert catalog_data_built_in_python(ast.parse(text)), text
    for text in (
        'h = CatalogEntry(name="Heisenberg", dim=0, kind="heisenberg")',
        "e = CatalogEntry(name=name, dim=n, kind=kind)",
        "m = LinearMap.from_columns(columns)",
        "v = OneForm.var",
    ):
        assert not catalog_data_built_in_python(ast.parse(text)), text


def test_the_catalog_data_is_the_package_file_alone():
    """The catalog's entries are ``catalog.alg``; ``catalog.py`` reads
    them and writes none itself, but for the Heisenberg family."""
    [path] = [p for p in SOURCES if p.name == "catalog.py"]
    assert catalog_data_built_in_python(ast.parse(path.read_text(encoding="utf-8"))) == []


def bracket_reads(tree: ast.Module) -> list:
    """Names of the top-level functions and classes that read bracket
    components: ``.brackets``, or ``.ad_numerators`` other than its index 1
    (the common denominator); unpacking it reads index 0 too."""
    denominators = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "ad_numerators"
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == 1
    }
    return [
        top.name
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and any(
            isinstance(node, ast.Attribute)
            and (
                node.attr == "brackets"
                or (node.attr == "ad_numerators" and id(node) not in denominators)
            )
            for node in ast.walk(top)
        )
    ]


def test_the_scan_sees_every_read_of_bracket_components():
    for text in (
        "def d1(L, a):\n    ad, r = L.ad_numerators\n    return r",
        "def rows(L):\n    return L.ad_numerators[0]",
        "def rows(L):\n    return list(L.brackets)",
        "def f(L):\n    def g():\n        return L.brackets\n    return g",
        "class A:\n    def f(self, L):\n        return L.ad_numerators",
    ):
        assert bracket_reads(ast.parse(text)), text
    for text in (
        "def d2(L, w):\n    return w * L.ad_numerators[1]",
        "def f(w):\n    return w.coeffs",
        "x = 1",
    ):
        assert bracket_reads(ast.parse(text)) == [], text


def combination_users(tree: ast.Module) -> list:
    """Names of the top-level functions and classes that call
    ``combinations`` (named directly or through a module): those that
    enumerate the increasing index tuples of forms."""
    return [
        top.name
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and any(
            isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "combinations"
            for node in ast.walk(top)
        )
    ]


def test_the_scan_sees_every_enumeration_of_index_tuples():
    for text in (
        "def rows(L, k):\n    return list(combinations(range(L.dim), k))",
        "def rows(n):\n    return [T for T in itertools.combinations(range(n), 2)]",
        "class A:\n    def f(self, n):\n        return combinations(range(n), 3)",
    ):
        assert combination_users(ast.parse(text)), text
    for text in (
        "def f(n):\n    return permutations(range(n))",
        "from itertools import combinations",
        "pairs = list(combinations(range(3), 2))",
    ):
        assert combination_users(ast.parse(text)) == [], text


def test_one_function_builds_the_differential_from_the_brackets():
    """Every differential, cocycle predicate and cocycle space, and the
    Jacobi identity, take their rows from ``lie_core.differential``, which
    ``exterior`` re-exports.  Of the functions of ``lie_core`` and
    ``exterior`` that read bracket components, one alone enumerates the
    index tuples of forms: ``lie_core._differential_rows``, the one place
    where the sign convention of d meets the structure constants.
    ``exterior`` reads no bracket component, and ``check_jacobi`` reads
    none but through the rows."""
    trees = {
        p.name: ast.parse(p.read_text(encoding="utf-8"))
        for p in SOURCES
        if p.name in ("exterior.py", "lie_core.py")
    }
    assert bracket_reads(trees["exterior.py"]) == []
    assert "check_jacobi" not in bracket_reads(trees["lie_core.py"])
    builders = [
        (name, top)
        for name, tree in sorted(trees.items())
        for top in set(bracket_reads(tree)) & set(combination_users(tree))
    ]
    assert builders == [("lie_core.py", "_differential_rows")]


PAIRWISE = {"bracket", "bracket_basis"}


def functions(tree: ast.Module) -> dict:
    """The top-level functions and class methods of a module by qualified
    name: ``f`` and ``Class.method``."""
    out = {}
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            out[top.name] = top
        elif isinstance(top, ast.ClassDef):
            methods = [n for n in top.body if isinstance(n, ast.FunctionDef)]
            out.update((f"{top.name}.{n.name}", n) for n in methods)
    return out


def pairwise_uses(tree: ast.Module, function: str, more: frozenset = frozenset()) -> list:
    """Line numbers where the function or method ``function`` (qualified as
    in ``functions``) uses ``bracket`` (named directly or read off a module),
    a ``bracket_basis`` method (``L.bracket_basis(i, j)``) or a method named
    in more, or calls a ``value`` method (``omega.value(x, y)``; a ``value``
    read without a call is the field of an ``ast`` node or an enum member):
    one bracket or one form value per basis pair."""
    top = functions(tree)[function]
    return sorted(
        node.lineno
        for node in ast.walk(top)
        if (isinstance(node, ast.Name) and node.id == "bracket")
        or (isinstance(node, ast.Attribute) and node.attr in PAIRWISE | more)
        or (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "value")
    )


def test_the_scan_sees_every_pairwise_bracket_and_form_value():
    for text in (
        "def f(L, x, y):\n    return bracket(L, x, y)",
        "def f(L, x):\n    return lie_core.bracket(L, x, x)",
        "def f(L):\n    return [L.bracket_basis(i, 0) for i in range(3)]",
        "def f(w, x, y):\n    return w.value(x, y)",
        "def f(L):\n    def g(i, j):\n        return L.bracket_basis(i, j)\n    return g",
        "def f(L, xs):\n    return list(map(partial(bracket, L), xs))",
    ):
        assert pairwise_uses(ast.parse(text), "f"), text
    for text in (
        "def f(L):\n    ad, r = L.ad_numerators\n    return ad",
        "def f(w):\n    return w.value_basis(0, 1)",
        "def f(a):\n    return a.apply((1, 0))",
        "def f(L):\n    return L.brackets",
        "def f(L):\n    return bracket_rows(L)\ndef g(L, x):\n    return bracket(L, x, x)",
        "def f(node):\n    return node.right.value",
    ):
        assert pairwise_uses(ast.parse(text), "f") == [], text
    method = "class A:\n    def f(self, L, x):\n        return bracket(L, x, x)"
    assert pairwise_uses(ast.parse(method), "A.f")
    # the extension scan also counts one vector or one pair at a time
    for text in (
        "def f(a, x):\n    return a.apply(x)",
        "def f(E, xs):\n    return [E.phi.apply(x) for x in xs]",
        "def f(w):\n    return w.value_basis(0, 1)",
    ):
        assert pairwise_uses(ast.parse(text), "f", EXTENSION_PAIRWISE), text
    for text in (
        "def f(E, x):\n    return mat_vec(E.phi.matrix, x)",
        "def f(w, x):\n    return w.contract(x)",
        "def f(a):\n    return a.coeffs\ndef g(a, x):\n    return a.apply(x)",
    ):
        assert pairwise_uses(ast.parse(text), "f", EXTENSION_PAIRWISE) == [], text


EXTENSION_PAIRWISE = frozenset({"apply", "value_basis"})


def test_extension_conditions_are_matrix_equations():
    """Every function and method of ``extensions`` states its conditions as
    matrix products over the adapted basis: none makes a bracket, a form
    value or a map or form applied to one vector at a time."""
    [path] = [p for p in SOURCES if p.name == "extensions.py"]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = functions(tree)
    assert {"_ist_components", "_closure_failures", "construct_A"} <= set(names)
    for function in names:
        assert pairwise_uses(tree, function, EXTENSION_PAIRWISE) == [], function


def test_no_function_of_the_package_makes_a_bracket_per_pair():
    """Every identity is a matrix equation on numerators, so no function or
    method of any module makes a bracket or a form value per basis pair;
    ``bracket`` itself is kept for library callers."""
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in functions(tree):
            assert pairwise_uses(tree, function) == [], (path.name, function)


def test_lie_identities_read_the_ad_numerators_whole():
    """Jacobi, ad, the centre, the derived series and the isomorphism check
    are matrix equations on ``LieAlgebra.ad_numerators`` (or on the rows of
    the differential): none makes a bracket or a form value per basis pair."""
    [path] = [p for p in SOURCES if p.name == "lie_core.py"]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for function in ("check_jacobi", "ad", "center", "derived_series", "check_isomorphism"):
        assert pairwise_uses(tree, function) == [], function


def reads(node: ast.AST) -> Counter:
    """How often each name is read under node, as a name or as an
    attribute of anything."""
    return Counter(
        getattr(n, "id", getattr(n, "attr", None))
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    )


def unreached(trees: dict, public: set, blind: frozenset = frozenset()) -> list:
    """``module.f`` or ``module.Class.f`` for each top-level function and
    class method of the modules in trees (stem -> ``ast.Module``) whose
    name no code of trees ``reads`` outside the function's own body; a name
    in blind counts as never read.  Exempt are the functions named in
    public, the static and class methods of the classes named in public,
    dunder methods and properties."""
    everywhere = sum((reads(tree) for tree in trees.values()), Counter())
    out = []
    for module, tree in trees.items():
        for qualified, f in functions(tree).items():
            owner = qualified.rpartition(".")[0]
            kinds = {getattr(d, "id", getattr(d, "attr", None)) for d in f.decorator_list}
            exempt = (
                (f.name.startswith("__") and f.name.endswith("__"))
                or kinds & {"property", "cached_property"}
                or (not owner and f.name in public)
                or (owner in public and kinds & {"staticmethod", "classmethod"})
            )
            if not exempt and (f.name in blind or everywhere[f.name] == reads(f)[f.name]):
                out.append(f"{module}.{qualified}")
    return out


def test_the_reach_scan_sees_every_unreached_function():
    parse = lambda *texts: {f"m{k}": ast.parse(t) for k, t in enumerate(texts)}
    for trees, public, found in (
        (parse("def f():\n    return 1"), set(), ["m0.f"]),
        (parse("def f(n):\n    return f(n - 1)"), set(), ["m0.f"]),
        (parse("class A:\n    def m(self):\n        return 1"), {"A"}, ["m0.A.m"]),
        (
            parse("class A:\n    @staticmethod\n    def make():\n        return A()"),
            set(),
            ["m0.A.make"],
        ),
        (parse("def f():\n    f = 1\n    return 2", "def g():\n    f = 3"), {"g"}, ["m0.f"]),
    ):
        assert unreached(trees, public) == found, found
    blind = parse("class W:\n    def value(self):\n        return 1\ndef g(w):\n    return w.value")
    assert unreached(blind, {"g"}, frozenset({"value"})) == ["m0.W.value"]
    for trees, public in (
        (parse("def f():\n    return 1\ndef g():\n    return f()"), {"g"}),
        (parse("def f():\n    return 1", "from .m0 import f\ndef g():\n    return f()"), {"g"}),
        (parse("class A:\n    def m(self):\n        return 1\ndef g(a):\n    return a.m"), {"g"}),
        (parse("class A:\n    @classmethod\n    def make(cls):\n        return cls()"), {"A"}),
        (
            parse(
                "class A:\n    def __post_init__(self):\n        pass\n"
                "    @property\n    def n(self):\n        return 1\n"
                "    @functools.cached_property\n    def rows(self):\n        return 2"
            ),
            set(),
        ),
    ):
        assert unreached(trees, public) == [], trees


# Names too common for a scan by name to see whether a method of that name
# is read: ``TwoForm.value`` was one, and no function of the package bears one.
BLIND = frozenset({"value"})


def test_every_function_of_the_package_is_reached():
    """Each top-level function and method is read by some other code of
    the package or is published in ``coslie.__all__``: code that nothing
    runs is deleted, not kept for the tests, which compute their reference
    values in ``tests/pairwise.py``."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert unreached(trees, set(coslie.__all__), BLIND) == []


SCALAR_BUILDERS = {"Fraction", "as_scalar"}


def scalar_builds(tree: ast.Module, function: str) -> list:
    """The scalar builders (``Fraction`` and ``as_scalar``, named directly
    or through a module) that the top-level function ``function`` calls."""
    [top] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    return sorted(
        name
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (name := getattr(node.func, "id", getattr(node.func, "attr", None))) in SCALAR_BUILDERS
    )


def test_the_scan_sees_every_scalar_builder_call():
    for text in (
        "def f(m):\n    return [as_scalar(x) for x in m]",
        "def f(x, d):\n    return Fraction(x, d)",
        "def f(v):\n    def g():\n        return sc.as_scalar(v)\n    return g",
    ):
        assert scalar_builds(ast.parse(text), "f"), text
    for text in (
        "def f(x, d):\n    return _quotient(x, d)",
        "def f(x):\n    return isinstance(x, Fraction)",
        "def f(x):\n    return x if x else ZERO\ndef g(x):\n    return Fraction(x)",
    ):
        assert scalar_builds(ast.parse(text), "f") == [], text


def test_elimination_runs_on_ring_numerators():
    """``_echelon`` and ``det_poly`` eliminate ints and Polys only: rows are
    cleared to ring elements before, and a Fraction is built, if at all,
    from the result after."""
    [path] = [p for p in SOURCES if p.name == "scalars.py"]
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for function in ("_echelon", "det_poly"):
        assert scalar_builds(tree, function) == [], function


PREDICATES = {"is_zero", "scalars_equal", "vec_is_zero", "vecs_equal"}


def predicate_helpers(tree: ast.Module) -> list:
    """Line numbers where a module defines a top-level function named as
    a zero or equality predicate on scalars (``is_zero``,
    ``scalars_equal``, ``vec_is_zero``, ``vecs_equal``), imports one, or
    calls one by name or read off a module (``sc.is_zero(x)``).  A method
    such as ``Poly.is_zero`` or ``form.is_zero()`` is not one."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "coslie"):
            modules |= {a.asname or a.name for a in node.names}
    lines = [
        top.lineno for top in tree.body if isinstance(top, ast.FunctionDef) and top.name in PREDICATES
    ]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and any(a.name in PREDICATES for a in node.names):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id in PREDICATES)
            or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in PREDICATES
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in modules
            )
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_scan_sees_every_predicate_helper():
    for text in (
        "def is_zero(s):\n    return s == 0",
        "from .scalars import Poly, vecs_equal",
        "from . import scalars as sc\nok = sc.is_zero(x)",
        "from coslie import scalars\nok = scalars.scalars_equal(a, b)",
        "import coslie.scalars as sc\nsc.vecs_equal(x, y)",
        "ok = [v for v in vs if not vec_is_zero(v)]",
    ):
        assert predicate_helpers(ast.parse(text)), text
    for text in (
        "ok = form.is_zero()",
        "class Poly:\n    def is_zero(self):\n        return not self.terms",
        "from . import scalars as sc\nok = sc.Poly.var('x').is_zero()",
        "from . import scalars as sc\nok = not any(v) and a == b",
        "from .exterior import OneForm\nok = OneForm.zero(3).is_zero()",
    ):
        assert predicate_helpers(ast.parse(text)) == [], text


def test_scalars_are_zero_tested_and_compared_by_the_python_protocol():
    """``Fraction`` and ``RatFn`` define ``__bool__``, a ``Poly`` is never
    zero, and all three define ``__eq__``, so a zero test is truthiness and
    an equality is ``==``: no module keeps a predicate of its own for
    either."""
    offenders = {
        p.name: lines
        for p in SOURCES
        if (lines := predicate_helpers(ast.parse(p.read_text(encoding="utf-8"))))
    }
    assert offenders == {}


def test_forms_and_algebras_compare_by_their_normalized_fields():
    """One-forms, two-forms and Lie algebras store only nonzero
    coefficients on i < j keys, so the ``__eq__`` that the dataclass
    generates is their equality; neither module writes one by hand."""
    for name in ("exterior.py", "lie_core.py"):
        [path] = [p for p in SOURCES if p.name == name]
        assert definitions(ast.parse(path.read_text(encoding="utf-8")), "__eq__") == [], name


def math_gcd_calls(tree: ast.Module) -> list:
    """(top, name, line) for each call of ``math.gcd`` or ``math.lcm``,
    imported by name (``from math import gcd as g``) or read off the module
    (``math.lcm``), with the name of the top-level function or class that
    makes it (None at module level)."""
    found, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "math"}
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found |= {a.asname or a.name: a.name for a in node.names if a.name in ("gcd", "lcm")}
    calls = []
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name) and f.id in found:
                calls.append((where, found[f.id], node.lineno))
            elif (
                isinstance(f, ast.Attribute)
                and f.attr in ("gcd", "lcm")
                and isinstance(f.value, ast.Name)
                and f.value.id in modules
            ):
                calls.append((where, f.attr, node.lineno))
    return calls


def test_the_scan_sees_every_gcd_and_lcm_call():
    for text, calls in (
        ("from math import gcd\ndef f(r):\n    return gcd(*r)", [("f", "gcd", 3)]),
        ("import math\nden = math.lcm(2, 3)", [(None, "lcm", 2)]),
        (
            "from math import lcm as l\nclass C:\n    def f(self):\n        return l(1, 2)",
            [("C", "lcm", 4)],
        ),
        (
            "import math as m\ndef f():\n    def g():\n        return m.gcd(4, 6)\n    return g",
            [("f", "gcd", 4)],
        ),
    ):
        assert math_gcd_calls(ast.parse(text)) == calls, text
    for text in (
        "def f(a, b):\n    return _gcd_univariate(a, b)",
        "def gcd(a, b):\n    return a\ng = gcd(4, 6)",
        "from math import prod\nx = prod([1, 2])",
        "from . import scalars as sc\nx = sc.gcd(4, 6)",
    ):
        assert math_gcd_calls(ast.parse(text)) == [], text


def test_no_module_but_scalars_takes_a_gcd_or_an_lcm():
    """Clearing a row of Scalars to ints for exact elimination, and
    dividing it by the gcd of its numerators, is the job of ``scalars``
    alone."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    offenders = {
        name: calls
        for name, tree in trees.items()
        if name != "scalars.py" and (calls := math_gcd_calls(tree))
    }
    assert offenders == {}


def test_common_denominator_is_the_one_lcm_of_denominators():
    """Every row enters exact elimination through ``common_denominator``,
    the one function of ``scalars`` that takes an lcm."""
    [path] = [p for p in SOURCES if p.name == "scalars.py"]
    calls = math_gcd_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert {top for top, name, _ in calls if name == "lcm"} == {"common_denominator"}
