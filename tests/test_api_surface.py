"""Every function, class and method under src/frpkernel is used by the
program itself: by src/, benchmarks/ or demos/, outside its own definition.
Re-exports in __init__.py files do not count as uses, and neither do tests,
so a name kept alive only by its tests fails here. Private (`_name`) helpers
are held to the same rule, so one left behind by a refactor fails too; dunder
methods are called by Python itself and are exempt."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "frpkernel"
CALLER_DIRS = (ROOT / "src", ROOT / "benchmarks", ROOT / "demos")

# GatingNet.save writes the file format that `frp-kernel gate --net` loads
ALLOWED = {"GatingNet.save"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defs(package: Path):
    """(qualified name, file, node) of every top-level function and class,
    and of every non-dunder method of a top-level class."""
    for path in sorted(package.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield node.name, path, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not _is_dunder(item.name)):
                        yield f"{node.name}.{item.name}", path, item


def _uses(caller_dirs):
    """name -> [(file, line)] of every Name, attribute, or string constant
    (benchmarks wrap methods by attribute name) in the caller directories."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for top in caller_dirs:
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


def unused_names(package: Path = PACKAGE, caller_dirs=CALLER_DIRS) -> list[str]:
    uses = _uses(caller_dirs)
    unused = []
    for qualname, path, node in _defs(package):
        outside = [(p, line) for p, line in uses.get(node.name, [])
                   if not (p == path and node.lineno <= line <= node.end_lineno)]
        if not outside:
            unused.append(qualname)
    return unused


def _private(qualname: str) -> bool:
    return qualname.rpartition(".")[2].startswith("_")


def test_every_public_name_has_a_program_caller():
    assert {n for n in unused_names() if not _private(n)} == ALLOWED


def test_every_private_name_has_a_program_caller():
    assert [n for n in unused_names() if _private(n)] == []


def test_guard_flags_a_private_helper_left_behind(tmp_path):
    """A private method whose only caller was refactored away is reported,
    even though it still calls itself."""
    package = tmp_path / "frpkernel"
    package.mkdir()
    (package / "mod.py").write_text(
        "class Engine:\n"
        "    def __init__(self):\n"
        "        self.ready = True\n"
        "\n"
        "    def run(self):\n"
        "        return self._blockers()\n"
        "\n"
        "    def _blockers(self):\n"
        "        return set()\n"
        "\n"
        "    def _acquirable(self):\n"
        "        return not self._acquirable()\n")
    (tmp_path / "main.py").write_text("from frpkernel.mod import Engine\nEngine().run()\n")
    assert unused_names(package, (tmp_path,)) == ["Engine._acquirable"]
