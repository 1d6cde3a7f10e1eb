"""Every process `src/apiary` starts comes from `child.Child`.

`Child` is a fork and two pipes. It holds SIGINT and SIGTERM across the
fork, ignores SIGINT in the child and never lets the child return into
the parent's code; the log writer, the PPO update worker and the eval
workers all rely on that. A second way to start a process would have to
get each of those right again: both hangs `eval --workers N` had came
from `multiprocessing.Pool`, which stopped its workers with SIGTERM. So
the check fails naming `module.py:line` for each call of an `os`
function that starts a process (`os.fork`, `os.posix_spawn`, `os.system`,
...) outside `child.py`, and for each import of a module that starts
processes or threads (`multiprocessing`, `subprocess`, `concurrent`,
`threading`) anywhere in the package.

Parent and child also speak one wire format: `child.send` and `receive`,
one pickle per message. So a second check fails naming `module.py:line`
for each import of `pickle` outside `child.py` (a second framing, or a
second place that unpickles) and of `struct` outside `learn/checkpoint.py`
(a hand-rolled binary message; the checkpoint file format is the one
binary layout the program owns).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "apiary"
FORK_HOME = "child.py"
STARTERS = {"fork", "forkpty", "posix_spawn", "posix_spawnp", "system", "popen"}
MODULES = {"multiprocessing", "subprocess", "concurrent", "threading"}
# the one module that may import each
WIRE_HOMES = {"pickle": "child.py", "struct": "learn/checkpoint.py"}


def _starts_process(name: str) -> bool:
    return name in STARTERS or name.startswith("spawn")


def _found(src: Path, names) -> list[str]:
    """`module.py:line: name` for each name `names(node, module)` gives
    for a node of a module in `src`."""
    found = []
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        in_file = []  # (line, name); ast.walk is breadth-first, so sort by line
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            in_file.extend((node.lineno, name) for name in names(node, module))
        in_file.sort(key=lambda item: item[0])
        found.extend(f"{module}:{line}: {name}" for line, name in in_file)
    return found


def _process_start(node: ast.AST, module: str) -> list[str]:
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] in MODULES]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        top = (node.module or "").split(".")[0]
        if top in MODULES:
            return [node.module]
        if top == "os" and module != FORK_HOME:
            return [f"os.{a.name}" for a in node.names if _starts_process(a.name)]
    if (
        isinstance(node, ast.Attribute) and _starts_process(node.attr)
        and isinstance(node.value, ast.Name) and node.value.id == "os"
        and module != FORK_HOME
    ):
        return [f"os.{node.attr}"]
    return []


def _wire_format(node: ast.AST, module: str) -> list[str]:
    names = []
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    return [name for name in names if WIRE_HOMES.get(name.split(".")[0], module) != module]


def process_starts(src: Path = SRC) -> list[str]:
    """`module.py:line: what` for each process start or import in `src`
    that does not go through `child.Child`."""
    return _found(src, _process_start)


def wire_formats(src: Path = SRC) -> list[str]:
    """`module.py:line: module` for each import in `src` of a module that
    frames bytes (`WIRE_HOMES`) outside that module's one home."""
    return _found(src, _wire_format)


def test_every_process_starts_through_child():
    found = process_starts()
    assert not found, f"processes started outside child.Child: {', '.join(found)}"


def test_check_sees_another_way_to_start_a_process(tmp_path):
    (tmp_path / "child.py").write_text("import os\n\npid = os.fork()\n")
    (tmp_path / "a.py").write_text(
        "import os\nimport multiprocessing.pool\nfrom concurrent import futures\n\n"
        "pid = os.fork()\nos.system('true')\nrun = os.posix_spawnp\nos.getpid()\n"
    )
    (tmp_path / "b.py").write_text(
        "import threading as t\nfrom os import spawnv, fork\nfrom subprocess import run\n"
    )
    # child.py may fork; no module may import a process or thread module
    assert process_starts(tmp_path) == [
        "a.py:2: multiprocessing.pool",
        "a.py:3: concurrent",
        "a.py:5: os.fork",
        "a.py:6: os.system",
        "a.py:7: os.posix_spawnp",
        "b.py:1: threading",
        "b.py:2: os.spawnv",
        "b.py:2: os.fork",
        "b.py:3: subprocess",
    ]


def test_one_wire_format():
    found = wire_formats()
    assert not found, f"messages framed outside child.send/receive: {', '.join(found)}"


def test_check_sees_another_wire_format(tmp_path):
    (tmp_path / "learn").mkdir()
    (tmp_path / "child.py").write_text("import os\nimport pickle\n")
    (tmp_path / "learn" / "checkpoint.py").write_text("import struct\n")
    (tmp_path / "a.py").write_text("import array\nimport struct\nfrom pickle import dumps\n")
    (tmp_path / "learn" / "b.py").write_text("import os, pickle as p\nfrom struct import Struct\n")
    # child.py may pickle and learn/checkpoint.py may pack; no other module may
    assert wire_formats(tmp_path) == [
        "a.py:2: struct",
        "a.py:3: pickle",
        "learn/b.py:1: pickle",
        "learn/b.py:2: struct",
    ]
