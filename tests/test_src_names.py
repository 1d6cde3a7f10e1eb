"""Every top-level name in `src/apiary` is used somewhere in `src/`.

A function, class or constant that only tests reach is API no command
runs; it has to be kept working and read past, and the next change to the
code around it has to carry it along. This check fails naming each
top-level definition or assignment that no `Name` or `Attribute` node in
`src/` reads. Dunder names (`__version__`, ...) are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "apiary"


def _defined_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def unreferenced_names(src: Path = SRC) -> list[str]:
    """`module.py:name` for each top-level name nothing in `src` reads."""
    defined, used = [], set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = path.relative_to(src).as_posix()
        defined.extend((module, name) for name in _defined_names(tree))
        for node in ast.walk(tree):
            # an assignment's own target is a Name too, so only reads count
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                used.add(node.attr)
    return [
        f"{module}:{name}"
        for module, name in defined
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]


def test_every_top_level_name_is_used_in_src():
    unused = unreferenced_names()
    assert not unused, f"defined in src/apiary but used nowhere in src/: {', '.join(unused)}"


def test_check_sees_an_unused_name(tmp_path):
    (tmp_path / "a.py").write_text(
        "import os\n\nLIMIT = 3\n__all__ = []\n\n\ndef used():\n    return LIMIT\n\n\n"
        "def helper():\n    return os.sep\n\n\nclass Spare:\n    pass\n\n\nx = used()\n"
    )
    (tmp_path / "b.py").write_text("from . import a\n\nprint(a.helper())\n")
    assert unreferenced_names(tmp_path) == ["a.py:Spare", "a.py:x"]
