"""Every top-level function and class in `src/qhelab`, and every private
module constant, has a user.

A user is a reference outside the name's own definition: a Name, an
Attribute or an import in `src/qhelab`, the same in
`tests/test_acceptance.py` or `bench/*.py` (where the tracer's `TIMED`
table names the functions it patches by string), or, for a public name, a
backticked mention in `README.md`.  Unit tests do not count: a helper only
they call belongs in the test file that calls it.
"""

import ast
import re
from pathlib import Path

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
