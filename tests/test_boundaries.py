"""src/ holds only what a command runs, none of it leans on test code, one
guarded function holds its one private numpy dependency, no module takes
another's private names, every closed-form bound lives in `bounds`, apart
from the code it is checked against, and the package root, `errors`, `bounds`
and `reports` load no numpy."""

import ast
import os
import pathlib
import re
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "smoothlab"
TEST_ONLY = {"samplers", "oracles", "pytest", "hypothesis"}
NUMPY_FREE = ("errors", "bounds", "reports")   # importing these loads no numpy


def parse_modules(src: pathlib.Path) -> dict:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(src.glob("*.py"))}


def unreached(src: pathlib.Path = SRC) -> list:
    """The top-level defs, classes and assignments of the modules in src that no
    chain of references leads to from cli.main. A name or attribute refers to
    every top-level name spelled the same in any module, so the walk can only
    over-count what is reached."""
    nodes, by_word = {}, {}
    for mod, tree in parse_modules(src).items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                continue
            for name in names:
                nodes[f"{mod}.{name}"] = node
                by_word.setdefault(name, []).append(f"{mod}.{name}")
    reached, todo = set(), ["cli.main"]
    while todo:
        qual = todo.pop()
        if qual not in reached:
            reached.add(qual)
            for sub in ast.walk(nodes[qual]):
                word = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                todo += by_word.get(word, [])
    return sorted(q for q in nodes.keys() - reached
                  if q.split(".")[1] != "__version__")


def private_lstsq_users(src: pathlib.Path = SRC) -> list:
    """The top-level defs of the modules in src whose code names
    numpy.linalg._umath_linalg, the stacked-lstsq gufunc that numpy keeps
    private: as a name, an attribute, an import or a dotted string such as
    getattr's. Module-level code is listed as `module.<module>`."""
    users = set()
    for mod, tree in parse_modules(src).items():
        for node in tree.body:
            for sub in ast.walk(node):
                words = [getattr(sub, "id", None), getattr(sub, "attr", None),
                         getattr(sub, "name", None), getattr(sub, "module", None)]
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                        and re.fullmatch(r"[\w.]+", sub.value):
                    words.append(sub.value)
                if any(isinstance(w, str) and "_umath_linalg" in w for w in words):
                    is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    users.add(f"{mod}.{node.name if is_def else '<module>'}")
    return sorted(users)


def imported(tree: ast.Module) -> set:
    """The modules a module imports, relative ones with their leading dots."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names |= {base} if node.module else {base + alias.name for alias in node.names}
    return names


def package_imports(tree: ast.Module) -> set:
    """The submodules of smoothlab that a module of it imports, by stem, at
    any depth of its code. In `from . import x` and `from smoothlab import x`,
    x counts as a submodule, so the set can only over-count."""
    stems = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["smoothlab" if node.level else "", node.module]))
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        stems |= {name.split(".")[1] for name in names if name.startswith("smoothlab.")}
    return stems


def private_imports(src: pathlib.Path = SRC) -> list:
    """`module: source.name` for each underscore name (not a dunder) that a module
    of src takes from the package: by `from .x import _name` or `from smoothlab.x
    import _name`, at any depth of its code, or as an attribute `x._name` of a
    package module it imported whole."""
    def private(name):
        return name.startswith("_") and not name.startswith("__")
    found = set()
    for mod, tree in parse_modules(src).items():
        modules = set()   # names bound to a package module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "smoothlab"):
                source = "." * node.level + (node.module or "")
                found |= {f"{mod}: {source}.{a.name}" for a in node.names if private(a.name)}
                if node.module in (None, "smoothlab"):   # from . import x: x is a module
                    modules |= {a.asname or a.name for a in node.names}
            elif isinstance(node, ast.Import):
                modules |= {a.asname or a.name.split(".")[0] for a in node.names
                            if a.name.split(".")[0] == "smoothlab"}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and private(node.attr):
                root = node.value
                while isinstance(root, ast.Attribute):
                    root = root.value
                if isinstance(root, ast.Name) and root.id in modules:
                    found.add(f"{mod}: {ast.unparse(node)}")
    return sorted(found)


def numpy_importers(src: pathlib.Path = SRC) -> list:
    """The modules of src that import numpy among those `import smoothlab.<root>`
    runs for each root in NUMPY_FREE: __init__, the roots and every submodule
    they import, transitively."""
    trees = parse_modules(src)
    run, todo = set(), ["__init__", *NUMPY_FREE]
    while todo:
        mod = todo.pop()
        if mod in trees and mod not in run:
            run.add(mod)
            todo += package_imports(trees[mod])
    return sorted(mod for mod in run
                  if any(name.split(".")[0] == "numpy" for name in imported(trees[mod])))


# the constants of the shadow bound and Sankar-Spielman-Teng's tail, and the
# submatrix lemma's tau = sigma^2 / (8 d^1.5 n^7), however d is spelled
BOUND_SPELLINGS = {
    "58888678": lambda node: isinstance(node, ast.Constant) and node.value == 58888678,
    "1.823": lambda node: isinstance(node, ast.Constant) and node.value == 1.823,
    "8.0 * d ** 1.5": lambda node: isinstance(node, ast.BinOp) and re.fullmatch(
        r"8\.0 \* ([\w.]+\.)?d \*\* 1\.5", ast.unparse(node)) is not None,
}


def bound_spellings(src: pathlib.Path = SRC) -> dict:
    """For each of BOUND_SPELLINGS, the module of each place src writes it."""
    trees = parse_modules(src)
    return {name: sorted(mod for mod, tree in trees.items() for node in ast.walk(tree)
                         if found(node))
            for name, found in BOUND_SPELLINGS.items()}


def test_bounds_imports_only_math_and_errors():
    assert imported(parse_modules(SRC)["bounds"]) == {"__future__", "math", ".errors"}


def test_each_bound_is_written_once_in_bounds():
    assert bound_spellings() == {name: ["bounds"] for name in BOUND_SPELLINGS}


def test_bound_spellings_sees_every_copy(tmp_path):
    (tmp_path / "a.py").write_text(
        "def tau(cfg, sigma):\n    return sigma ** 2 / (8.0 * cfg.d ** 1.5 * cfg.n ** 7)\n"
        "def sst(sd, t):\n    return 1.823 * sd / t\n")
    (tmp_path / "b.py").write_text(
        "TAU = 1 / (8.0 * d ** 1.5)\nSHADOW = 58888678.0\nNOT_TAU = 8.0 * dd ** 1.5\n")
    assert bound_spellings(tmp_path) == {"58888678": ["b"], "1.823": ["a"],
                                         "8.0 * d ** 1.5": ["a", "b"]}


def test_package_root_imports_nothing():
    assert imported(parse_modules(SRC)["__init__"]) == set()


def test_package_root_rule_sees_a_nested_import(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "def version():\n    from importlib.metadata import version\n"
        "    return version('smoothlab')\n")
    assert imported(parse_modules(tmp_path)["__init__"]) == {"importlib.metadata"}


def test_reports_imports_no_smoothlab_module_but_errors():
    assert package_imports(parse_modules(SRC)["reports"]) <= {"errors"}


def test_package_imports_sees_every_spelling(tmp_path):
    (tmp_path / "reports.py").write_text(
        "import json\nimport smoothlab\nimport smoothlab.cli\nfrom . import bounds\n"
        "from .errors import ConfigError\nfrom smoothlab import numkit\n"
        "from smoothlab.perturb import block_streams\n"
        "def late():\n    from .experiments import Report\n    return Report\n")
    assert package_imports(parse_modules(tmp_path)["reports"]) == {
        "bounds", "cli", "errors", "experiments", "numkit", "perturb"}


def test_numpy_free_modules_import_no_numpy():
    assert numpy_importers() == []


def test_numpy_importers_follows_every_import(tmp_path):
    (tmp_path / "__init__.py").write_text("from numpy.linalg import norm\n")
    (tmp_path / "errors.py").write_text("class SmoothlabError(Exception):\n    pass\n")
    (tmp_path / "bounds.py").write_text("import math\nfrom .errors import SmoothlabError\n")
    (tmp_path / "reports.py").write_text("from . import helper\n")
    (tmp_path / "helper.py").write_text("def f():\n    import numpy as np\n    return np\n")
    (tmp_path / "unused.py").write_text("import numpy\n")
    assert numpy_importers(tmp_path) == ["__init__", "helper"]


def test_importing_the_numpy_free_modules_loads_no_numpy():
    modules = ", ".join(["smoothlab"] + [f"smoothlab.{mod}" for mod in NUMPY_FREE])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    code = f"import sys, {modules}; assert 'numpy' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_no_src_module_imports_another_modules_private_name():
    assert private_imports() == []


def test_private_imports_sees_every_spelling(tmp_path):
    (tmp_path / "simplex.py").write_text(
        "from __future__ import annotations\nimport numpy as np\nimport smoothlab.numkit\n"
        "from . import polytope as poly\nfrom .polytope import __doc__, _independent, solve\n"
        "def late():\n    from smoothlab.perceptron import _helper\n"
        "    return _helper, poly._unit_peak_rows, poly.solve, smoothlab.numkit._parse\n"
        "def numpy_private():\n    return np.linalg._umath_linalg, late._cache\n")
    assert private_imports(tmp_path) == [
        "simplex: .polytope._independent", "simplex: poly._unit_peak_rows",
        "simplex: smoothlab.numkit._parse", "simplex: smoothlab.perceptron._helper"]


def test_polytope_does_not_import_perturb():
    assert not {".perturb", "smoothlab.perturb"} & imported(parse_modules(SRC)["polytope"])


def test_one_function_uses_the_private_lstsq_gufunc():
    assert private_lstsq_users() == ["perceptron._stacked_lstsq"]


def test_private_lstsq_users_sees_every_spelling(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n"
        "from numpy.linalg import _umath_linalg\n"
        "def by_attribute():\n    return np.linalg._umath_linalg.lstsq\n"
        "def by_getattr():\n    return getattr(np.linalg, '_umath_linalg')\n"
        "def by_message():\n    return 'see numpy.linalg._umath_linalg for details'\n")
    (tmp_path / "b.py").write_text(
        "def by_import():\n    import numpy.linalg._umath_linalg as g\n    return g\n")
    assert private_lstsq_users(tmp_path) == ["a.<module>", "a.by_attribute", "a.by_getattr",
                                             "b.by_import"]


def test_every_top_level_name_is_reached_from_cli_main():
    assert unreached() == []


def test_no_src_module_imports_test_code():
    for mod, tree in parse_modules(SRC).items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported = [node.module]
            else:
                continue
            assert not {name.split(".")[0] for name in imported} & TEST_ONLY, (mod, imported)
