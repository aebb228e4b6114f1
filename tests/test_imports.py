"""Every name a module imports is read somewhere in that module, every
parameter of a library function is read in its body, and every private
helper of the library is named somewhere outside its own definition.

The scans use the stdlib `ast` over the library's and the tests' own files.
`__init__.py` is skipped: its imports are the package's re-exports.  A name
listed in a module's `__all__` counts as read.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p
    for p in [*(ROOT / "src" / "quasishuffle").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    if p.name != "__init__.py"
)


def unread_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", FILES, ids=[p.relative_to(ROOT).as_posix() for p in FILES])
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []


def test_the_scan_finds_an_unread_import():
    source = "import os\nimport a.b\nfrom x import y as z, w\n__all__ = ['w']\nprint(a)\n"
    assert unread_imports(source) == ["os (line 1)", "z (line 3)"]


def unread_parameters(source: str) -> list[str]:
    """Parameters that a function's body never reads.

    A body that only raises (after an optional docstring) is abstract, and
    its parameters are exempt.  A read from a nested function counts.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if len(body) == 1 and isinstance(body[0], ast.Raise):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
        }
        name = getattr(node, "name", "<lambda>")
        out += [f"{name}({p.arg}) (line {node.lineno})" for p in params if p.arg not in read]
    return out


LIBRARY = [p for p in FILES if p.parent.name == "quasishuffle"]


@pytest.mark.parametrize("path", LIBRARY, ids=[p.relative_to(ROOT).as_posix() for p in LIBRARY])
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text()) == []


def test_the_scan_finds_an_unread_parameter():
    source = (
        "def f(a, b, *, c=1, **kw):\n    return a + kw['x']\n"
        "class S:\n    def draw(self, shape):\n        'abstract'\n        raise NotImplementedError\n"
        "    def g(self, x):\n        return lambda y: x\n"
    )
    assert unread_parameters(source) == [
        "f(b) (line 1)", "f(c) (line 1)", "g(self) (line 7)", "<lambda>(y) (line 8)"
    ]


def unreferenced_private(sources: list[str]) -> list[str]:
    """Private functions and classes (`_name`, not dunder) that no source
    names outside their own definition, as a `Name` or an attribute."""
    trees = [ast.parse(source) for source in sources]
    nodes = [node for tree in trees for node in ast.walk(tree)]

    def references(nodes, name):
        return sum(
            (isinstance(n, ast.Name) and n.id == name)
            or (isinstance(n, ast.Attribute) and n.attr == name)
            for n in nodes
        )

    defined = [
        n
        for n in nodes
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and n.name.startswith("_")
        and not n.name.endswith("__")
    ]
    return sorted(
        f"{d.name} (line {d.lineno})"
        for d in defined
        if references(nodes, d.name) == references(list(ast.walk(d)), d.name)
    )


def test_every_private_helper_is_referenced():
    sources = [p.read_text() for p in (ROOT / "src" / "quasishuffle").glob("*.py")]
    assert unreferenced_private(sources) == []


def test_the_scan_finds_an_unreferenced_helper():
    sources = [
        "def _used():\n    pass\ndef _recursive(k):\n    return _recursive(k - 1)\n"
        "class _Left:\n    def _method(self):\n        return self._method()\n"
        "def __dunder__():\n    pass\n",
        "from a import _used\nclass C:\n    def _hash(self):\n        pass\n"
        "    def f(self):\n        return _used(), self._hash()\n",
    ]
    assert unreferenced_private(sources) == [
        "_Left (line 5)", "_method (line 6)", "_recursive (line 3)"
    ]


# -- one lookup, one ordering path -----------------------------------------

SEARCHES = {"measure.py": {"_Guide.build"}, "stats.py": {"ks_measure_marginal"}}


def callers(source: str, name: str) -> set[str]:
    """Qualified names of the functions that call `name`."""
    out = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        func = node.func if isinstance(node, ast.Call) else None
        if getattr(func, "attr", getattr(func, "id", None)) == name:
            out.add(".".join(scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return out


def test_the_scan_finds_searchsorted_callers():
    source = (
        "import numpy as np\nfrom numpy import searchsorted\nnp.searchsorted([0], 1)\n"
        "class G:\n    def build(self):\n        return np.searchsorted(self.e, 0.5)\n"
        "def f(u):\n    return searchsorted([0], u)\n"
    )
    assert callers(source, "searchsorted") == {"", "G.build", "f"}


@pytest.mark.parametrize("path", LIBRARY, ids=[p.relative_to(ROOT).as_posix() for p in LIBRARY])
def test_draws_search_only_through_the_guide(path):
    """Draws find their pieces through `measure._Guide`; only its builder
    and the KS test's CDF breakpoints call a binary search."""
    assert callers(path.read_text(), "searchsorted") <= SEARCHES.get(path.name, set())


def test_one_class_loop_runs_the_transfer_kernel():
    """Every exact route of a plain measure is a fold over
    `oracle._class_values`, the only caller of `_transfer_powers`."""
    found = set().union(*(callers(p.read_text(), "_transfer_powers") for p in LIBRARY))
    assert found == {"_class_values"}


def test_one_law_battery_verifies_every_source():
    """`verify._verify_law`, which measures and mixtures both run, is the
    only caller in `verify` of the ordering sampler, the cell enumeration
    and the restriction, and `verify` runs no exchangeability test."""
    source = (ROOT / "src" / "quasishuffle" / "verify.py").read_text()
    for name in (
        "ordering_counts", "_cell_enumeration", "combine_distributions", "restrict_distribution",
    ):
        assert callers(source, name) == {"_verify_law"}, name
    assert callers(source, "exchangeability_test") == set()


def test_one_dealing_loop_chooses_the_row_route():
    """Every conjugate row is dealt by `ordering._deal`, the only caller of
    the word-table and class-table builders, whose class tables alone read
    the source-free `_class_tables`; `kernels` imports `_deal` alone from
    `ordering`, and no word table or batch table of its own."""
    for name, caller in (
        ("_built_words", "_deal"),
        ("_built_classes", "_deal"),
        ("_class_tables", "_built_classes"),
    ):
        found = set().union(*(callers(p.read_text(), name) for p in LIBRARY))
        assert found == {caller}, name
    tree = ast.parse((ROOT / "src" / "quasishuffle" / "kernels.py").read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert {a.name for n in imports if n.module == "ordering" for a in n.names} == {"_deal"}
    names = {a.name for n in imports for a in n.names}
    assert not {n for n in names if n.startswith("_word_") or n == "_batch_tables"}


def test_words_and_classes_share_one_row_table():
    """`ordering` holds a word table and a class table in one type, and has
    no separate word or class type, nor the helpers that split the route
    choice between them."""
    tree = ast.parse((ROOT / "src" / "quasishuffle" / "ordering.py").read_text())
    classes = {n.name for n in tree.body if isinstance(n, ast.ClassDef)}
    assert classes == {"_RowTable", "EmpiricalPosition"}
    functions = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert functions.isdisjoint({"_word_tables", "_class_guide"})
    # and `_deal` deals both through one lookup
    assert callers(ast.unparse(tree), "find") == {"_deal"}


def test_keys_have_one_rank_path():
    """`ordering._rank_keys` sorts every row of keys: `ordering` neither
    imports the comparison-counting kernel nor defines a width up to which
    key rows would count comparisons."""
    tree = ast.parse((ROOT / "src" / "quasishuffle" / "ordering.py").read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assigned = {
        t.id
        for n in ast.walk(tree)
        if isinstance(n, (ast.Assign, ast.AnnAssign))
        for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
        if isinstance(t, ast.Name)
    }
    assert "_counted_ranks" not in imported
    assert not {name for name in assigned if name.startswith("_KEY_") and name.endswith("_WIDTH")}


def defined(source: str, name: str) -> set[str]:
    """Qualified names of the functions called `name` that the source
    defines."""
    out = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                out.add(".".join([*scope, name]))
            scope = [*scope, node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return out


def test_the_scan_finds_definitions():
    source = "def draw():\n    pass\nclass A:\n    def draw(self):\n        pass\n"
    assert defined(source, "draw") == {"draw", "A.draw"}


def test_one_pair_draw_serves_every_coupling():
    """Every coupling draws its pairs from its cell table through
    `CouplingSampler.draw_batch`: `kernels` defines no other `draw_batch`,
    and no other `kernels` function draws uniforms."""
    source = (ROOT / "src" / "quasishuffle" / "kernels.py").read_text()
    assert defined(source, "draw_batch") == {"CouplingSampler.draw_batch"}
    assert callers(source, "random") == {"CouplingSampler.draw_batch"}


def test_ordering_loads_without_the_oracle():
    """`ordering` reads the class law from `oracle` only when it builds a
    class guide, so the sampling commands import no exact route."""
    import os
    import subprocess
    import sys

    code = (
        "import sys, quasishuffle.ordering, quasishuffle.kernels; "
        "assert 'quasishuffle.oracle' not in sys.modules, sorted(sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_one_counter_counts_permutations():
    """Every histogram on S_n is counted by `permutations.count_perms`: no
    other module calls `np.bincount`, and `kernels` computes no S_n index
    of its own."""
    found = {p.name for p in LIBRARY if callers(p.read_text(), "bincount")}
    assert found <= {"permutations.py"}
    assert callers((ROOT / "src" / "quasishuffle" / "kernels.py").read_text(), "_lex_index") == set()


def test_ordering_has_one_path_for_measures_and_mixtures():
    """`ordering` deals a mixture's rows as a measure's: it imports no
    per-component draw or cell table and branches on no `MeasureMixture`."""
    tree = ast.parse((ROOT / "src" / "quasishuffle" / "ordering.py").read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert imported.isdisjoint({"_component_draws", "cell_decomposition"})
    branches = [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "isinstance"
        and any(getattr(a, "id", None) == "MeasureMixture" for a in n.args)
    ]
    assert branches == []


# -- exact ordering keys --------------------------------------------------

# the one stable sort left ranks float pairs, which may tie
STABLE_SORTS = {"permutations.py": {"_row_ranks"}}


def float_key_remnants(name: str, source: str) -> list[str]:
    """What the float ordering key needed, left in the module `name`: a
    `distinct` parameter or keyword, a `kind="stable"` sort outside
    `STABLE_SORTS`, a `rank` or `rel` on `ConjugateBatch`, and in
    `ordering.py` a `within` table."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        if isinstance(node, (ast.arg, ast.keyword)) and node.arg == "distinct":
            out.append(f"distinct (line {node.lineno})")
        if (
            isinstance(node, ast.keyword) and node.arg == "kind"
            and getattr(node.value, "value", None) == "stable"
            and ".".join(scope) not in STABLE_SORTS.get(name, set())
        ):
            out.append(f"stable sort in {'.'.join(scope)} (line {node.lineno})")
        if isinstance(node, ast.ClassDef) and node.name == "ConjugateBatch":
            for stmt in node.body:
                field = getattr(getattr(stmt, "target", None), "id", getattr(stmt, "name", None))
                if field in ("rank", "rel"):
                    out.append(f"ConjugateBatch.{field} (line {stmt.lineno})")
        if name == "ordering.py" and isinstance(node, ast.Name) and node.id == "within":
            out.append(f"within (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), [])
    return out


def test_the_scan_finds_float_key_remnants():
    source = (
        "import numpy as np\n"
        "def _row_ranks(keys, distinct=False):\n    return np.argsort(keys, kind='stable')\n"
        "def f(keys):\n    return _row_ranks(keys, distinct=True), np.sort(keys, kind='stable')\n"
        "class ConjugateBatch:\n    u: float\n    rank: int\n"
        "    @property\n    def rel(self):\n        return self.u\n"
        "within = [0.5]\n"
    )
    assert float_key_remnants("permutations.py", source) == [
        "distinct (line 2)", "distinct (line 5)", "stable sort in f (line 5)",
        "ConjugateBatch.rank (line 8)", "ConjugateBatch.rel (line 10)",
    ]
    assert float_key_remnants("ordering.py", source)[-1] == "within (line 12)"


@pytest.mark.parametrize("path", LIBRARY, ids=[p.relative_to(ROOT).as_posix() for p in LIBRARY])
def test_ordering_keys_leave_no_float_key_remnant(path):
    """Orderings rank one exact integer key per draw, which cannot tie, so
    nothing is left of the float key's tie handling."""
    assert float_key_remnants(path.name, path.read_text()) == []


# -- bounded caches -------------------------------------------------------


def unbounded_caches(source: str) -> list[int]:
    """Lines of `lru_cache(maxsize=None)`, `lru_cache(None)` and `cache`
    decorators: caches that keep every key they are given."""
    out = []
    for node in ast.walk(ast.parse(source)):
        for dec in getattr(node, "decorator_list", []):
            func = dec.func if isinstance(dec, ast.Call) else dec
            name = getattr(func, "attr", getattr(func, "id", None))
            if isinstance(dec, ast.Call):
                sizes = [*dec.args[:1], *(k.value for k in dec.keywords if k.arg == "maxsize")]
                unbounded = name == "lru_cache" and any(
                    isinstance(v, ast.Constant) and v.value is None for v in sizes
                )
            else:
                unbounded = name == "cache"
            if unbounded:
                out.append(dec.lineno)
    return out


def test_the_scan_finds_unbounded_caches():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\ndef a(n):\n    pass\n"
        "@functools.lru_cache(None)\ndef b(n):\n    pass\n"
        "@cache\ndef c(n):\n    pass\n"
        "@lru_cache(maxsize=16)\ndef d(n):\n    pass\n"
        "@lru_cache\ndef e(n):\n    pass\n"
    )
    assert unbounded_caches(source) == [3, 6, 9]


@pytest.mark.parametrize("path", LIBRARY, ids=[p.relative_to(ROOT).as_posix() for p in LIBRARY])
def test_library_caches_are_bounded(path):
    assert unbounded_caches(path.read_text()) == []


# -- row counts ---------------------------------------------------------


def unique_row_calls(source: str) -> list[int]:
    """Lines of `unique(..., axis=0)` calls: a row-wise unique sorts rows
    as structured records, several times slower than one `np.lexsort`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "unique"
        and any(k.arg == "axis" and getattr(k.value, "value", None) == 0 for k in node.keywords)
    ]


def test_the_scan_finds_row_wise_unique_calls():
    source = (
        "import numpy as np\nfrom numpy import unique\nnp.unique(a)\n"
        "np.unique(a, axis=0, return_counts=True)\nunique(a, axis=0)\nnp.unique(a, axis=1)\n"
    )
    assert unique_row_calls(source) == [4, 5]


@pytest.mark.parametrize("path", LIBRARY, ids=[p.relative_to(ROOT).as_posix() for p in LIBRARY])
def test_rows_are_counted_without_a_row_wise_unique(path):
    assert unique_row_calls(path.read_text()) == []


# -- the lazy package namespace -------------------------------------------

EXPORTS = {
    "errors": (
        "CapExceeded", "DegenerateGap", "DimensionMismatch", "EmptyCounts", "ExactUnavailable",
        "IncomparableSamples", "InvalidGridMatrix", "InvalidMixture", "InvalidShuffleMap",
        "NotPurelyAtomic", "OutOfRange", "OverlappingGaps", "QuasiShuffleError",
        "WindowTooSmall",
    ),
    "measure": (
        "CandidateMeasure", "Cell", "CellDecomposition", "ConjugateSample", "GapInterval",
        "MeasureMixture", "QuasiUniformMeasure", "a_shuffle", "as_fraction",
        "cell_decomposition", "compose", "gsr", "interior_atom_fixture", "is_quasi_uniform",
        "lebesgue", "mixed_fixture", "parse_measure", "power", "resolve_source",
        "sample_conjugate_batch", "sample_conjugate_pair", "source_from_json", "validate",
    ),
    "ordering": (
        "EmpiricalPosition", "compare", "empirical_positions", "exchangeability_test",
        "ordering_counts", "sample_ordering_batch",
    ),
    "kernels": (
        "AffinePiece", "ConjugateCoupling", "CouplingSampler", "DeterministicCoupling",
        "GridCopulaCoupling", "InverseConjugateCoupling", "MixtureCoupling", "ShuffleMap",
        "empirical_mixing_curve", "empirical_step_counts", "kernel_matrix", "resolve_sampler",
        "sampler_from_json", "shuffle_map_from_measure", "step_batch", "walk",
    ),
    "oracle": (
        "PermutationDistribution", "combine_distributions", "convolve",
        "exact_coupling_step_distribution", "exact_map_step_distribution",
        "exact_ordering_distribution", "exact_step_distribution", "invert_distribution",
        "mixing_curve", "ranking_probability", "restrict_distribution", "transition_matrix",
        "tv_distance",
    ),
    "stats": (
        "TestReport", "chi_square_goodness", "chi_square_two_sample", "empirical_tv",
        "ks_measure_marginal", "ks_uniform",
    ),
    "verify": ("CheckResult", "VerifyReport", "run_property_suite"),
}


def test_package_exports_its_public_names():
    import importlib
    import importlib.util
    import os
    import subprocess
    import sys

    import quasishuffle

    assert sorted(quasishuffle.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    assert len(quasishuffle.__all__) == 81
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"quasishuffle.{module}")
        for name in names:
            assert getattr(quasishuffle, name) is getattr(defining, name), name
    # the benchmark's span recorder reads each traced module off the package
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module in {module for module, _, _ in tracing.TRACED}:
        assert getattr(quasishuffle, module) is importlib.import_module(f"quasishuffle.{module}")
    with pytest.raises(AttributeError):
        quasishuffle.no_such_name
    # in a fresh process, a first read imports the submodule
    code = (
        "import sys, quasishuffle as q; "
        "assert 'quasishuffle.oracle' not in sys.modules; "
        "assert q.oracle is sys.modules['quasishuffle.oracle']; "
        "assert q.walk is sys.modules['quasishuffle.kernels'].walk"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
