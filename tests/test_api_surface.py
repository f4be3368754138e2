"""Every public function, class and method under src/frpkernel is used by the
program itself: by src/, benchmarks/ or demos/, outside its own definition.
Re-exports in __init__.py files do not count as uses, and neither do tests,
so a name kept alive only by its tests fails here."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "frpkernel"
CALLER_DIRS = (ROOT / "src", ROOT / "benchmarks", ROOT / "demos")

# GatingNet.save writes the file format that `frp-kernel gate --net` loads
ALLOWED = {"GatingNet.save"}


def _public_defs():
    """(qualified name, file, node) of every public top-level function and
    class, and of every public method of a top-level class."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            yield node.name, path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{node.name}.{item.name}", path, item


def _uses():
    """name -> [(file, line)] of every Name, attribute, or string constant
    (benchmarks wrap methods by attribute name) in the caller directories."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for top in CALLER_DIRS:
        for path in sorted(top.rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                uses.setdefault(name, []).append((path, node.lineno))
    return uses


def unused_public_names() -> list[str]:
    uses = _uses()
    unused = []
    for qualname, path, node in _public_defs():
        outside = [(p, line) for p, line in uses.get(node.name, [])
                   if not (p == path and node.lineno <= line <= node.end_lineno)]
        if not outside:
            unused.append(qualname)
    return unused


def test_every_public_name_has_a_program_caller():
    assert set(unused_public_names()) == ALLOWED
