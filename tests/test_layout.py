"""Package layout rules, checked on the source text with ``ast``.

Every top-level function and class of ``src/sulfexp`` is referenced
somewhere in ``src/`` outside its own definition: a call, an attribute,
an import or a name. A helper that only tests or benches use is dead code
in the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sulfexp"
#: top-level definitions nothing in src/ uses: bench/tracing.py wraps this one by name
UNREFERENCED_ALLOWED = {"linalg.dominant_eigenpair"}
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(node) -> set[str]:
    """Every name below ``node`` that can refer to a top-level definition."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
    return names


def unreferenced(src: Path) -> set[str]:
    """The top-level definitions in the modules of ``src`` that no code
    outside their own body names."""
    modules = {path.stem: ast.parse(path.read_text(), str(path)) for path in src.glob("*.py")}
    # per module, the names each top-level statement refers to
    statements = {stem: [(stmt, referenced_names(stmt)) for stmt in tree.body]
                  for stem, tree in modules.items()}
    missing = set()
    for stem, tree in modules.items():
        for definition in tree.body:
            if not isinstance(definition, DEFINITIONS):
                continue
            if not any(definition.name in names
                       for other, pairs in statements.items()
                       for stmt, names in pairs
                       if not (other == stem and stmt is definition)):
                missing.add(f"{stem}.{definition.name}")
    return missing


def test_every_top_level_definition_is_used_in_src():
    assert unreferenced(SRC) == UNREFERENCED_ALLOWED


def test_a_dead_helper_is_found(tmp_path):
    (tmp_path / "alive.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def recursive():\n    return recursive()\n\n\n"
        "class Dead:\n    pass\n\n\nused()\n")
    assert unreferenced(tmp_path) == {"alive.recursive", "alive.Dead"}
