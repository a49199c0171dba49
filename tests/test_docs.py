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
    assert results["alexander_from_diagram(trefoil)"] == Laurent.from_list([1, -1, 1])
    assert results["homogenize(two)"].strands == 5
