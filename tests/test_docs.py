"""The README's examples run and give the results its comments state."""

import ast
import re
from pathlib import Path

from braidbands.laurent import Laurent
from braidbands.words import parse_word

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour_results() -> dict:
    """Run the "Library tour" block; map each bare expression's source to its value."""
    text = README.read_text()
    block = re.search(r"## Library tour\s+```python\n(.*?)```", text, re.S).group(1)
    namespace: dict = {}
    results = {}
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            results[source] = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return results


def test_readme_library_tour():
    results = _tour_results()
    assert results["is_homogeneous(w)"] is True
    assert results["homogenize(trefoil)"] == parse_word("b(1,2)^3", strands=2)
    assert results["alexander_from_diagram(trefoil)"] == Laurent((1, -1, 1))
    assert results["homogenize(two)"].strands == 5


SRC = README.parent / "src" / "braidbands"
BENCH = README.parent / "bench"

# Public names that nothing in the package, the benchmark or the README tour
# calls, each with the reason it stays.
UNCALLED = {
    "diagram_seifert_matrix": "the README's Seifert API: the diagram's Seifert matrix over given cycles",
    "word_seifert_matrix": "the README's Seifert API: the band word's Seifert matrix over given cycles",
}


def _referenced(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names used in ``tree`` outside ``skip``; strings, docstrings included, do not count."""
    inside = set(map(id, ast.walk(skip))) if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    # Each public top-level function and class of the package is used by
    # other package code, the CLI, the benchmark or the README tour.  A name
    # that only tests call belongs in the tests.
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    names = {path: _referenced(tree) for path, tree in trees.items()}
    tour = re.search(r"## Library tour\s+```python\n(.*?)```", README.read_text(), re.S).group(1)
    outside = _referenced(ast.parse(tour)).union(*(_referenced(ast.parse(p.read_text())) for p in BENCH.glob("*.py")))
    uncalled = []
    for path, tree in trees.items():
        used = outside.union(*(n for other, n in names.items() if other != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in used and node.name not in _referenced(tree, node):
                uncalled.append(f"{path.stem}.{node.name}")
    assert sorted(uncalled) == sorted(f"invariants.{name}" for name in UNCALLED)
