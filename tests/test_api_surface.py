"""Every top-level function and class in `src/qhelab`, and every private
module constant, has a user.

A user is a reference outside the name's own definition: a Name, an
Attribute or an import in `src/qhelab`, the same in
`tests/test_acceptance.py` or `bench/*.py` (where the tracer's `TIMED`
table names the functions it patches by string), or, for a public name, a
backticked mention in `README.md`.  Unit tests do not count: a helper only
they call belongs in the test file that calls it.

Every optional parameter of a function in `src/qhelab` is passed by some
call in `src/qhelab`, `tests/` or `bench/`; a default that nothing
overrides is a constant.

Every import in a module of `src/qhelab` is used by that module, unless
its line is marked `# noqa: F401`.

Every flag the CLI parser registers is read by `cli.py` outside the
parser; a flag that nothing reads is a knob that turns nothing.
"""

import argparse
import ast
import re
from pathlib import Path

from qhelab import cli

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "qhelab"


def _module_aliases(tree):
    """Local names that are bound to a qhelab module or to a name in one:
    {local: (module, None)} or {local: (module, name)}."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            src = node.module or ""
            if (src or "qhelab") == "qhelab":  # from . import qsim
                for a in node.names:
                    out[a.asname or a.name] = (a.name, None)
            elif node.level or src.startswith("qhelab."):
                mod = src.rsplit(".", 1)[-1]
                for a in node.names:
                    out[a.asname or a.name] = (mod, a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("qhelab."):
                    out[a.asname or a.name.split(".")[-1]] = (
                        a.name.split(".")[-1], None)
    return out


def _references(tree, module=None):
    """(module, name) pairs that the file refers to, each tagged with the
    top-level definition it sits in: a function, a class or a single-name
    assignment (None elsewhere)."""
    aliases = _module_aliases(tree)
    refs = set()
    for stmt in tree.body:
        owner = _defined_name(stmt)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                target = aliases.get(node.id)
                if target is None and module is not None:
                    target = (module, node.id)
                if target and target[1]:
                    refs.add((target, owner))
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)):
                target = aliases.get(node.value.id)
                if target and target[1] is None:
                    refs.add(((target[0], node.attr), owner))
            elif isinstance(node, ast.ImportFrom):
                for a in node.names:
                    target = aliases.get(a.asname or a.name)
                    if target and target[1]:
                        refs.add((target, owner))
    return refs


def _timed(tree):
    """(module, name) pairs in the bench tracer's TIMED table, which looks
    each name up with getattr."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TIMED"
                        for t in node.targets)):
            return {(layer, name) for layer, names
                    in ast.literal_eval(node.value).items() for name in names}
    return set()


def _defined_name(stmt):
    """The name a top-level function, class or single-name assignment
    defines, else None."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return stmt.name
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    if len(targets) == 1 and isinstance(targets[0], ast.Name):
        return targets[0].id
    return None


def _definitions():
    """(module, name, is_constant) for every top-level definition."""
    defs = set()
    for path in sorted(PKG.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            name = _defined_name(stmt)
            if name is not None and not name.startswith("__"):
                defs.add((path.stem, name,
                          not isinstance(stmt, (ast.FunctionDef,
                                                ast.ClassDef))))
    return defs


def _used():
    used = set()
    for path in PKG.glob("*.py"):
        for (mod, name), owner in _references(ast.parse(path.read_text()),
                                              path.stem):
            if not (mod == path.stem and owner == name):
                used.add((mod, name))
    others = [ROOT / "tests" / "test_acceptance.py",
              *sorted((ROOT / "bench").glob("*.py"))]
    for path in others:
        tree = ast.parse(path.read_text())
        used |= {ref for ref, _ in _references(tree)} | _timed(tree)
    readme = set()
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        readme |= set(re.findall(r"[A-Za-z_]\w*", span))
    return used, readme


def test_every_public_name_has_a_user():
    used, readme = _used()
    unused = sorted(f"{mod}.{name}" for mod, name, constant in _definitions()
                    if not constant and not name.startswith("_")
                    and (mod, name) not in used and name not in readme)
    assert not unused, "public names with no user outside the unit tests: " \
        + ", ".join(unused)


def test_every_private_name_has_a_user():
    used, _ = _used()
    unused = sorted(f"{mod}.{name}" for mod, name, _ in _definitions()
                    if name.startswith("_") and (mod, name) not in used)
    assert not unused, "private names with no user outside the unit tests: " \
        + ", ".join(unused)


def test_guard_sees_each_kind_of_reference():
    """The guard resolves module aliases, from-imports and the tracer's
    string table, and ignores a definition's references to itself."""
    tree = ast.parse(
        "from . import qsim as q\n"
        "from .harness import measure_with\n"
        "_K = 2\n"
        "_L = [_K]\n"
        "def f():\n"
        "    return q.apply_gate, f, g\n"
        "def g():\n"
        "    return g\n")
    refs = _references(tree, "m")
    assert (("qsim", "apply_gate"), "f") in refs
    assert (("harness", "measure_with"), None) in refs
    assert (("m", "g"), "f") in refs
    assert (("m", "g"), "g") in refs  # dropped by _used as self-reference
    assert (("m", "_K"), "_L") in refs  # a constant used by another
    assert (("m", "_K"), "_K") in refs  # its own assignment: self-reference
    assert {owner for ref, owner in refs if ref == ("m", "_L")} == {"_L"}
    assert _timed(ast.parse("TIMED = {'qsim': ('apply_gate',)}")) == {
        ("qsim", "apply_gate")}


def _optional_parameters(tree):
    """(function, callee name, [(position or None, parameter)]) for every
    function in the module that has defaults; a method's position skips
    its receiver, and __init__ is called by its class's name."""
    out = []
    owners = {id(f): c.name for c in ast.walk(tree)
              if isinstance(c, ast.ClassDef) for f in c.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        a = fn.args
        pos = [p.arg for p in a.posonlyargs + a.args]
        if id(fn) in owners and not any(getattr(d, "id", None) ==
                                        "staticmethod"
                                        for d in fn.decorator_list):
            pos = pos[1:]
        first = len(pos) - len(a.defaults)
        optional = [(i, p) for i, p in enumerate(pos) if i >= first]
        optional += [(None, p.arg) for p, d in zip(a.kwonlyargs,
                                                   a.kw_defaults)
                     if d is not None]
        if optional:
            callee = owners[id(fn)] if fn.name == "__init__" else fn.name
            out.append((fn.name, callee, optional))
    return out


def _calls_by_name(trees):
    """{callee name: [Call]} over the trees, and the set of names that
    appear other than as a callee (passed on, stored or looked up)."""
    calls, other = {}, set()
    for tree in trees:
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr",
                                                        None))
                if name:
                    callees.add(id(node.func))
                    calls.setdefault(name, []).append(node)
        for node in ast.walk(tree):
            if id(node) not in callees:
                if isinstance(node, ast.Name):
                    other.add(node.id)
                elif isinstance(node, ast.Attribute):
                    other.add(node.attr)
    return calls, other


def _passes(call, position, name):
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return True  # *args or **kwargs may pass anything
    return ((position is not None and position < len(call.args))
            or any(k.arg == name for k in call.keywords))


def _unpassed(paths):
    """module.function(parameter) for every optional parameter that no
    call by the function's name passes; a function whose name also
    appears other than as a callee is skipped, since its calls cannot all
    be seen."""
    calls, other = _calls_by_name(ast.parse(p.read_text()) for p in paths)
    out = []
    for path in sorted(PKG.glob("*.py")):
        for fn, callee, optional in _optional_parameters(
                ast.parse(path.read_text())):
            if callee in other:
                continue
            out += [f"{path.stem}.{fn}({p})" for i, p in optional
                    if not any(_passes(c, i, p)
                               for c in calls.get(callee, []))]
    return out


def test_every_optional_parameter_is_passed():
    paths = [*PKG.glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "bench").glob("*.py")]
    unpassed = _unpassed(paths)
    assert not unpassed, "optional parameters that no call passes: " + \
        ", ".join(unpassed)


def test_parameter_guard_sees_each_kind_of_call():
    """Positional and keyword passing, methods, constructors and star
    arguments count; a function passed on as a value is skipped."""
    tree = ast.parse(
        "class C:\n"
        "    def __init__(self, a=1): pass\n"
        "    def m(self, b=2, *, c=3): pass\n"
        "def f(x, y=0, z=0): pass\n"
        "def g(w=0): pass\n")
    assert sorted(_optional_parameters(tree)) == [
        ("__init__", "C", [(0, "a")]), ("f", "f", [(1, "y"), (2, "z")]),
        ("g", "g", [(0, "w")]), ("m", "m", [(0, "b"), (None, "c")])]
    calls, other = _calls_by_name([ast.parse(
        "C(5); o.m(c=1); f(1, 2); h(g); f(*args)")])
    assert "g" in other and "f" not in other
    (call,) = calls["C"]
    assert _passes(call, 0, "a")
    (call,) = calls["m"]
    assert _passes(call, None, "c") and not _passes(call, 0, "b")
    plain, star = calls["f"]
    assert _passes(plain, 1, "y") and not _passes(plain, 2, "z")
    assert _passes(star, 2, "z")


def _unused_imports(source):
    """Names that an import in `source` binds and nothing else in it
    refers to; `from __future__` imports and lines marked `# noqa: F401`
    are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for a in node.names:
            name = a.asname or a.name.split(".")[0]
            if name not in used:
                out.append(name)
    return out


def test_every_import_is_used():
    unused = [f"{path.stem}.{name}" for path in sorted(PKG.glob("*.py"))
              for name in _unused_imports(path.read_text())]
    assert not unused, "imports that nothing in their module uses: " + \
        ", ".join(unused)


def test_import_guard_sees_each_kind_of_import():
    """Plain, dotted, aliased and from-imports count; a use as an attribute
    root, a call or an annotation counts as a use."""
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "import json, sys\n"
        "from . import qsim, rebit\n"
        "from .harness import (ALICE,\n"
        "                      BOB)\n"
        "from .harness import measure_with  # noqa: F401\n"
        "def f(x: qsim.Gate) -> None:\n"
        "    return os.path.join(np.pi, json.dumps(ALICE))\n")
    assert sorted(_unused_imports(source)) == ["BOB", "rebit", "sys"]


def _parser_dests(parser):
    """Every dest that `parser` and its subcommands register, help aside."""
    dests = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command in action.choices.values():
                dests |= _parser_dests(command)
        if action.dest != "help":
            dests.add(action.dest)
    return dests


def _args_reads(source, parser_fn="_build_parser"):
    """Names that `source` reads as `args.<name>` or as
    `getattr(args, "<name>")`, outside the function `parser_fn`."""
    tree = ast.parse(source)
    skip = {id(node) for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name == parser_fn
            for node in ast.walk(fn)}
    reads = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and getattr(node.value, "id", None) == "args"):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "getattr"
              and len(node.args) >= 2
              and getattr(node.args[0], "id", None) == "args"
              and isinstance(node.args[1], ast.Constant)):
            reads.add(node.args[1].value)
    return reads


def test_every_cli_flag_is_read():
    unread = sorted(_parser_dests(cli._build_parser())
                    - _args_reads((PKG / "cli.py").read_text()))
    assert not unread, "CLI flags that nothing outside the parser reads: " \
        + ", ".join(unread)


def test_flag_guard_sees_each_kind_of_read():
    """Subcommand flags and the subcommand's own dest are registered; an
    attribute load or a getattr by literal name reads a flag, while a
    store, a getattr by variable, another object's attribute and anything
    inside the parser do not."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--top")
    sub = parser.add_subparsers(dest="command")
    sub.add_parser("go").add_argument("--max-bits", type=int)
    assert _parser_dests(parser) == {"top", "command", "max_bits"}
    source = (
        "def _build_parser():\n"
        "    return args.inside\n"
        "def main(args, flag):\n"
        "    args.stored = 1\n"
        "    return (args.a, getattr(args, 'b'), getattr(args, 'c', None),\n"
        "            getattr(args, flag), other.d)\n")
    assert _args_reads(source) == {"a", "b", "c"}
