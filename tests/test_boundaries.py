"""src/ holds only what a command runs, and none of it leans on test code."""

import ast
import pathlib

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
