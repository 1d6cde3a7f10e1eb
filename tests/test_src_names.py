"""Every top-level name in `src/apiary` is used somewhere in `src/`, and
every parameter default in it is both used and overridden by some caller.

A function, class or constant that only tests reach is API no command
runs; it has to be kept working and read past, and the next change to the
code around it has to carry it along. The name check fails naming each
top-level definition or assignment that no `Name` or `Attribute` node in
`src/` reads. Dunder names (`__version__`, ...) are exempt.

A default is the same kind of API one level down. If every caller passes
the parameter, the default (and any branch it selects) is reached only by
tests; if no caller passes it, the parameter is a constant. The default
check reads every call in `src/` and `perfbench/` (the benchmark calls the
program and is frozen, so it counts as a caller) and fails naming
`module.py:function:parameter` for each default that no call leaves in
place or no call overrides.

A dataclass field is the same kind of API on data: one that nothing reads
is filled, carried and kept working for no one. The field check fails
naming `module.py:Class.field` for each field of a `@dataclass` in
`src/apiary` that nothing in `src/` or `perfbench/` reads, where a read is
an attribute load of its name or its name as a string constant (for
`getattr` by name, as `ManeuverMetrics.SCALARS` is read).

A public method is the same kind of API on a class: one that only tests
call (a test-only reader, say) is kept working for no command. The method
check fails naming `module.py:Class.method` for each public method of a
class in `src/apiary` that nothing in `src/` or `perfbench/` reads, a read
counted as the field check counts it. A method that overrides one of a
base class from outside the package (`cli._Parser.error` overrides
argparse's) is called by that base's code, so it is exempt.
"""

import ast
import builtins
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "apiary"
CALLERS = (ROOT / "src", ROOT / "perfbench")


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


def _defaulted_functions(tree: ast.Module) -> list[tuple[str, str, list[str], list[str]]]:
    """(qualified name, name it is called by, positional parameters,
    defaulted parameters) of each function or method with a default. A
    method's positional parameters leave out self/cls; `__init__` is
    called by its class's name."""
    found = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                if cls is not None and not static:
                    positional = positional[1:]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
                ]
                if defaulted:
                    called_as = cls if node.name == "__init__" else node.name
                    name = node.name if cls is None else f"{cls}.{node.name}"
                    found.append((name, called_as, positional, defaulted))
                visit(node.body, None)

    visit(tree.body, None)
    return found


def _calls(roots) -> dict[str, list[tuple[int, set[str], bool]]]:
    """Called name -> (positional argument count, keyword names, whether
    `*`/`**` unpacking makes the bound parameters unknowable) per call."""
    calls: dict[str, list] = {}
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                unpacked = any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords
                )
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                calls.setdefault(name, []).append((len(node.args), keywords, unpacked))
    return calls


def misused_defaults(src: Path = SRC, callers=CALLERS) -> list[str]:
    """`module.py:function:parameter (why)` for each default in `src` that
    no call in `callers` leaves in place, or that none overrides."""
    calls = _calls(callers)
    found = []
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, called_as, positional, defaulted in _defaulted_functions(tree):
            sites = calls.get(called_as, [])
            for param in defaulted:
                # per call: (passes param, may pass it or not)
                binds = [
                    (param in positional[:n_args] or param in keywords, unpacked)
                    for n_args, keywords, unpacked in sites
                ]
                if all(passed and not unknown for passed, unknown in binds):
                    found.append(f"{module}:{name}:{param} (every call sets it)")
                if not any(passed or unknown for passed, unknown in binds):
                    found.append(f"{module}:{name}:{param} (no call sets it)")
    return found


def test_every_default_is_used_and_overridden():
    misused = misused_defaults()
    assert not misused, f"defaults that only tests reach: {', '.join(misused)}"


def test_check_sees_a_default_no_caller_needs(tmp_path):
    src, bench = tmp_path / "pkg", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "a.py").write_text(
        "def fly(seq, mode=0, net=None, *, log=None, spare=1):\n    return seq\n\n\n"
        "class Env:\n    def __init__(self, n, seed=0):\n        self.n = n\n\n"
        "    def step(self, actions, clip=True):\n        return actions\n"
    )
    (src / "b.py").write_text(
        "from .a import Env, fly\n\n"
        "fly([1], 2, log=3)\nfly([1], net=4, log=5)\n"
        "Env(4).step([0], clip=False)\nEnv(4, seed=1).step([1], False)\n"
    )
    # the benchmark's calls count: it is the only one leaving log in place
    (bench / "run.py").write_text("from pkg.a import fly\n\nfly([1], 2, 3)\n")
    assert misused_defaults(src, (src, bench)) == [
        "a.py:fly:spare (no call sets it)",
        "a.py:Env.step:clip (every call sets it)",
    ]
    assert misused_defaults(src, (src,)) == [
        "a.py:fly:log (every call sets it)",
        "a.py:fly:spare (no call sets it)",
        "a.py:Env.step:clip (every call sets it)",
    ]
    # an unpacked call may bind any parameter, so it both sets and leaves each
    (bench / "run.py").write_text("from pkg.a import fly\n\nfly(*([1], 2, 3))\n")
    assert misused_defaults(src, (src, bench)) == ["a.py:Env.step:clip (every call sets it)"]


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return "dataclass" in (getattr(target, "id", None), getattr(target, "attr", None))


def _reads(readers) -> set[str]:
    """Every attribute load and string constant in `readers`."""
    reads = set()
    for root in readers:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    reads.add(node.value)
    return reads


def unread_fields(src: Path = SRC, readers=CALLERS) -> list[str]:
    """`module.py:Class.field` for each dataclass field in `src` that no
    attribute load or string constant in `readers` names."""
    reads = _reads(readers)
    found = []
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                found.extend(
                    f"{module}:{node.name}.{item.target.id}"
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                    and item.target.id not in reads
                )
    return found


def test_every_dataclass_field_is_read():
    unread = unread_fields()
    assert not unread, f"dataclass fields nothing in src/ or perfbench/ reads: {', '.join(unread)}"


def test_check_sees_an_unread_field(tmp_path):
    src, bench = tmp_path / "pkg", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "a.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n\n\n"
        "@dataclass\nclass Buffer:\n    obs: list\n    returns: list\n    spare: list\n\n\n"
        "@dataclasses.dataclass(frozen=True)\nclass Metrics:\n    err: float\n    path: float\n"
        "    NAMES = ('err',)\n\n\n"
        "class Plain:\n    hidden: int\n\n\n"
        "def use(buf, met):\n    buf.spare = [buf.obs]\n    return getattr(met, Metrics.NAMES[0])\n"
    )
    (bench / "run.py").write_text("def report(buf):\n    return len(buf.returns)\n")
    # a store is not a read, and a class that is no dataclass has no fields
    assert unread_fields(src, (src, bench)) == ["a.py:Buffer.spare", "a.py:Metrics.path"]
    assert unread_fields(src, (src,)) == [
        "a.py:Buffer.returns", "a.py:Buffer.spare", "a.py:Metrics.path",
    ]


def _outside_base(expr: ast.expr, imported: dict[str, tuple[str, str | None]]):
    """The class a base-class expression names when it comes from outside
    the package (an absolute import or a builtin), else None."""
    chain = []
    while isinstance(expr, ast.Attribute):
        chain.insert(0, expr.attr)
        expr = expr.value
    if not isinstance(expr, ast.Name):
        return None
    if expr.id in imported:
        module, attr = imported[expr.id]
        obj = importlib.import_module(module)
        chain = [attr, *chain] if attr else chain
    elif hasattr(builtins, expr.id):
        obj, chain = builtins, [expr.id, *chain]
    else:
        return None
    for attr in chain:
        obj = getattr(obj, attr)
    return obj


def unread_methods(src: Path = SRC, readers=CALLERS) -> list[str]:
    """`module.py:Class.method` for each public method of a class in `src`
    that no attribute load or string constant in `readers` names, leaving
    out those that override a method of a base from outside the package."""
    reads = _reads(readers)
    found = []
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}  # local name -> (module, attribute or None)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = (
                        a.name if a.asname else a.name.split(".")[0], None,
                    )
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for a in node.names:
                    imported[a.asname or a.name] = (node.module, a.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = [b for b in (_outside_base(e, imported) for e in node.bases) if b is not None]
            found.extend(
                f"{module}:{node.name}.{item.name}"
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
                and item.name not in reads
                and not any(hasattr(b, item.name) for b in bases)
            )
    return found


def test_every_public_method_is_read():
    unread = unread_methods()
    assert not unread, f"public methods nothing in src/ or perfbench/ reads: {', '.join(unread)}"


def test_check_sees_a_test_only_method(tmp_path):
    src, bench = tmp_path / "pkg", tmp_path / "bench"
    src.mkdir()
    bench.mkdir()
    (src / "a.py").write_text(
        "import argparse\nimport enum\nfrom collections import OrderedDict as OD\n"
        "from .b import Base\n\n\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        raise SystemExit(message)\n\n"
        "    def spare(self):\n        pass\n\n\n"
        "class Table(OD):\n    def popitem(self, last=True):\n        pass\n\n\n"
        "class Failure(RuntimeError):\n    def with_traceback(self, tb):\n        pass\n\n\n"
        "class Mode(enum.Enum):\n    A = 'a'\n\n    def label(self):\n        return 1\n\n\n"
        "class Log(Base):\n"
        "    def append(self, row):\n        self._check(row)\n\n"
        "    def _check(self, row):\n        pass\n\n"
        "    def error(self):\n        pass\n\n"
        "    def columns(self):\n        pass\n\n"
        "    @classmethod\n    def read_csv(cls, path):\n        return cls()\n\n\n"
        "def use(log):\n    log.append(1)\n    return getattr(log, 'columns')()\n"
    )
    (src / "b.py").write_text("class Base:\n    pass\n")
    (bench / "run.py").write_text("def report(mode):\n    return mode.label()\n")
    # overrides of argparse, OrderedDict and RuntimeError methods are exempt;
    # a method named like one of an outside base, on a class without one, is not
    assert unread_methods(src, (src, bench)) == [
        "a.py:Parser.spare", "a.py:Log.error", "a.py:Log.read_csv",
    ]
    assert unread_methods(src, (src,)) == [
        "a.py:Parser.spare", "a.py:Mode.label", "a.py:Log.error", "a.py:Log.read_csv",
    ]
