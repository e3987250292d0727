"""src/ holds only what a command runs, none of it leans on test code, and
one guarded function holds its one private numpy dependency."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "smoothlab"
TEST_ONLY = {"samplers", "oracles", "pytest", "hypothesis"}


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
                  if q.split(".")[1] not in ("__all__", "__version__"))


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
