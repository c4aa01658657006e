"""Packaging metadata and public names point at code that exists."""
import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import gkdirac
from gkdirac.report import Report

ROOT = Path(__file__).resolve().parents[1]


def _pyproject():
    # tomllib is in the standard library from Python 3.11 on; on 3.10 only
    # the two pyproject tests skip, not the whole module
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def test_script_targets_import():
    scripts = _pyproject().get("project", {}).get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            assert hasattr(obj, part), f"script {name}: {target} is missing"
            obj = getattr(obj, part)


def test_package_data_globs_match():
    setuptools = _pyproject().get("tool", {}).get("setuptools", {})
    wheres = setuptools.get("packages", {}).get("find", {}).get("where", ["."])
    for package, globs in setuptools.get("package-data", {}).items():
        dirs = [ROOT / w / package.replace(".", "/") for w in wheres]
        for pattern in globs:
            assert any(any(d.glob(pattern)) for d in dirs), (
                f"package data {package}: {pattern} matches no file")


def test_all_names_exist():
    modules = [m.name for m in pkgutil.iter_modules(gkdirac.__path__)]
    assert modules
    for name in modules:
        mod = importlib.import_module(f"gkdirac.{name}")
        for export in getattr(mod, "__all__", ()):
            assert hasattr(mod, export), f"gkdirac.{name}.{export} is missing"


def test_only_report_defines_ok():
    # every verdict comes back as a gkdirac.report.Report; a class of its
    # own with an ``ok`` is a second result type
    offenders = []
    for info in pkgutil.iter_modules(gkdirac.__path__):
        mod = importlib.import_module(f"gkdirac.{info.name}")
        for obj in vars(mod).values():
            if (inspect.isclass(obj) and obj.__module__ == mod.__name__
                    and obj is not Report and "ok" in vars(obj)):
                offenders.append(f"{mod.__name__}.{obj.__qualname__}")
    assert not offenders, offenders


def _unused_imports(source):
    """Names a module imports but never reads and does not export."""
    tree = ast.parse(source)
    imported = {}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in exported)


def test_no_unused_imports():
    # no linter runs on this package, so an import left behind by a
    # deletion is caught here
    offenders = {}
    for path in sorted((ROOT / "src" / "gkdirac").glob("*.py")):
        unused = _unused_imports(path.read_text())
        if unused:
            offenders[path.name] = unused
    assert not offenders, offenders


def test_unused_import_check_sees_a_stale_name():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from .linalg import mat_mul, poly_det as det\n"
              "__all__ = ['mat_mul']\n"
              "def f():\n"
              "    return os.sep\n")
    assert _unused_imports(source) == ["det (line 3)"]


def _settable_values(source):
    """The defaulted parameters of every function and lambda in
    ``source``: each is a value a caller may set or leave alone."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            args = node.args
            count += len(args.defaults) + sum(
                d is not None for d in args.kw_defaults)
    return count


# A change that adds an option raises this on purpose and says why; an
# option is justified when two callers outside the tests need different
# values of it
_SETTABLE_VALUES_CEILING = 117


def test_settable_values_stay_under_the_ceiling():
    count = sum(_settable_values(path.read_text())
                for path in (ROOT / "src" / "gkdirac").glob("*.py"))
    assert count <= _SETTABLE_VALUES_CEILING, count


def test_settable_value_count_sees_every_default():
    source = ("def f(a, b=1, *args, c, d=2, **kw):\n"
              "    g = lambda x, y=0: x + y\n"
              "    return g(a)\n"
              "class C:\n"
              "    def m(self, /, p=None, *, q, r=3):\n"
              "        pass\n"
              "    async def n(self, s=4):\n"
              "        pass\n")
    assert _settable_values(source) == 6


def _defined_names(top):
    """The names a module-level statement binds by a def, a class or an
    assignment."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return [top.name]
    targets = (top.targets if isinstance(top, ast.Assign) else
               [top.target] if isinstance(top, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name)]


def _unused_private_helpers(sources):
    """Private module-level functions, classes and assigned names of
    ``sources`` (module name -> source) that no code reads outside their
    own definition."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    reads = {}
    for module, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                reads.setdefault(name, set()).add((module, id(top)))
    offenders = []
    for module, tree in trees.items():
        for top in tree.body:
            for name in _defined_names(top):
                if (name.startswith("_") and not name.startswith("__")
                        and not reads.get(name, set()) - {(module, id(top))}):
                    offenders.append(f"{module}.{name}")
    return sorted(offenders)


def test_private_helpers_have_a_reader():
    # a private helper, shim or constant left behind by a deletion is
    # caught here
    sources = {path.stem: path.read_text()
               for path in (ROOT / "src" / "gkdirac").glob("*.py")}
    assert not _unused_private_helpers(sources)


def test_unused_helper_check_sees_a_stale_helper():
    sources = {
        "a": ("def _used():\n    return 1\n"
              "def _recursive(k):\n    return _recursive(k - 1)\n"
              "class _Stale:\n    pass\n"
              "_LIMIT = 5\n_ONCE, _TWICE = 1, 2\n__all__ = []\n"),
        "b": ("from .a import _used, _Stale, _LIMIT\n"
              "def f(m):\n    return _used() + m._attr() + _TWICE\n"
              "def _attr():\n    return 0\n"
              "_TABLE: dict = {}\n"),
    }
    assert _unused_private_helpers(sources) == [
        "a._LIMIT", "a._ONCE", "a._Stale", "a._recursive", "b._TABLE"]


def _unread_exports(sources, outside, kept):
    """The ``__all__`` names of ``sources`` (module name -> source) that
    no code reads, as ``module.name``.  An export is read by another
    module's ``from .module import name``, by its own module's code outside
    its definition, or by a name, an attribute or a dotted part of a string
    in the ``outside`` sources (the benchmark reaches the package through
    ``gk.module.name`` chains and names the attributes it traces by
    string).  A name in ``kept`` may go unread, and is reported when it is
    read after all, so that the list stays true."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    imported = {(node.module, alias.name)
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    seen = set()
    for source in outside:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                seen.update(node.value.split("."))
    offenders = []
    for module, tree in trees.items():
        exports, own = (), set()
        for top in tree.body:
            if isinstance(top, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in top.targets):
                exports = ast.literal_eval(top.value)
                continue
            defined = _defined_names(top)
            own.update(node.id for node in ast.walk(top)
                       if isinstance(node, ast.Name)
                       and node.id not in defined)
        for name in exports:
            read = (module, name) in imported or name in own or name in seen
            if read == (f"{module}.{name}" in kept):
                offenders.append(f"{module}.{name}")
    return sorted(offenders)


# Exports that nothing in src/gkdirac or perfbench reads, each kept for the
# reason given
_UNREAD_EXPORTS_KEPT = {
    "forms.dz": "shorthand for the 1-form dz_i, used throughout the tests",
    "forms.dzbar": "shorthand for the 1-form dzbar_i, beside dz",
    "genkahler.gc_deform": "a paper operation: the deformation of a "
                           "generalized complex structure by a closed 2-form",
    "genkahler.gk_lift": "a paper operation: the lift of gauge deformations "
                         "of (sigma_+, sigma_-) to the generalized Kahler pair",
    "genkahler.graph_to_bivector": "a paper operation: the bivector P of a "
                                   "graph frame {P xi + xi}",
    "scalars.sc": "shorthand constructor for Scalar, used throughout the "
                  "tests",
}


def test_every_export_has_a_reader():
    # an export left behind by a deletion, or one that only the tests
    # read, is caught here
    sources = {path.stem: path.read_text()
               for path in (ROOT / "src" / "gkdirac").glob("*.py")}
    outside = [path.read_text()
               for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert not _unread_exports(sources, outside, _UNREAD_EXPORTS_KEPT)


def test_unread_export_check_sees_a_stale_export():
    sources = {
        "a": ("__all__ = ['f', 'g', 'K', 'rec', 'traced', 'stale', 'kept',"
              " 'listed']\n"
              "def f():\n    return g()\n"
              "def g():\n    return 1\n"
              "class K:\n    pass\n"
              "def rec(k):\n    return rec(k - 1)\n"
              "def traced():\n    pass\n"
              "def stale(m):\n    return m.stale\n"
              "def kept():\n    pass\n"
              "def listed():\n    pass\n"),
        "b": ("from .a import K, listed\n"
              "__all__ = ['run']\n"
              "def run():\n    return K(), listed()\n"),
    }
    outside = ["def bench(gk):\n    return gk.a.f(), gk.b.run()\n"
               "SPANS = ((\"a\", \"traced\", \"a.layer\"),)\n"]
    kept = {"a.kept": "reason", "a.listed": "reason"}
    assert _unread_exports(sources, outside, kept) == [
        "a.listed", "a.rec", "a.stale"]


def _syntax_errors_before_3_11(sources):
    """The files of ``sources`` (name -> source) whose grammar needs
    Python 3.11 or later, with the parser's message."""
    offenders = {}
    for name, source in sources.items():
        try:
            ast.parse(source, feature_version=(3, 10))
        except SyntaxError as err:
            offenders[name] = f"line {err.lineno}: {err.msg}"
    return offenders


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; this checks the
    # grammar only (``except*``, ...), not the standard-library names a
    # module uses, which a 3.10 interpreter would still have to run
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for top in ("src", "tests", "perfbench")
               for path in sorted((ROOT / top).rglob("*.py"))}
    assert len(sources) > 30
    assert not _syntax_errors_before_3_11(sources)


def test_syntax_guard_sees_an_except_star():
    sources = {"group.py": ("try:\n    pass\n"
                            "except* ValueError:\n    pass\n"),
               "plain.py": "try:\n    pass\nexcept ValueError:\n    pass\n"}
    assert list(_syntax_errors_before_3_11(sources)) == ["group.py"]


def _load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    # the benchmark's traced run wraps these names; a simplification that
    # deletes or renames one would break it
    tracer = _load_tracer()
    missing = []
    for module, attr, _layer in tracer.SPANS + tracer.COUNTS:
        obj = importlib.import_module(f"gkdirac.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"gkdirac.{module}.{attr}")
    assert tracer.SPANS and tracer.COUNTS
    assert not missing, missing


def _dotted(node):
    """``("a", "b", "c")`` for the expression ``a.b.c``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return (node.id, *reversed(parts))


def _unresolved_gk_chains(source):
    """Attribute chains rooted at the name ``gk`` in ``source``, such as
    ``gk.poisson.Bivector``, whose first link is not a ``gkdirac`` module
    or whose later links are not attributes of it; longest chains only.
    A name bound to a chain (``hitchin = gk.hitchin``) roots chains too."""
    tree = ast.parse(source)
    roots = {"gk": ()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = ([(target, value)] if not isinstance(target, ast.Tuple)
                     else zip(target.elts, getattr(value, "elts", ())))
            for name, val in pairs:
                chain = _dotted(val)
                if isinstance(name, ast.Name) and chain and chain[0] == "gk":
                    roots[name.id] = chain[1:]
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        chain = (_dotted(node) if isinstance(node, ast.Attribute)
                 and id(node) not in inner else None)
        if chain and chain[0] in roots:
            chains.add(roots[chain[0]] + chain[1:])
    missing = []
    for module, *attrs in sorted(chains):
        try:
            obj = importlib.import_module(f"gkdirac.{module}")
        except ImportError:
            obj = None
        for part in attrs:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(".".join(("gk", module, *attrs)))
    return missing


def test_benchmark_names_resolve():
    # the benchmark's workloads reach the package only through ``gk``, a
    # namespace of its modules; a simplification that deletes or renames a
    # name they use would break the benchmark
    source = (ROOT / "perfbench" / "workloads.py").read_text()
    assert "gk.poisson.Bivector" in source
    assert not _unresolved_gk_chains(source)


def test_benchmark_name_check_sees_a_missing_name():
    source = ("def f(gk, model, mat):\n"
              "    b = gk.poisson.Bivector(model, mat).conj()\n"
              "    hitchin, e = gk.hitchin, gk.multivector.MVElement.monomial\n"
              "    hitchin.solve_hitchin, hitchin.no_such_check\n"
              "    return gk.poisson.Bivector.from_matrix(model, mat), \\\n"
              "        gk.no_such_module.f, other.poisson.Missing\n")
    assert _unresolved_gk_chains(source) == [
        "gk.hitchin.no_such_check", "gk.no_such_module.f",
        "gk.poisson.Bivector.from_matrix"]
