"""Every public top-level function and class of the library has a user.

A name counts as used when another part of `src/gcvx` refers to it, when
the benchmark in `perfbench/` names it, when `gcvx.__all__` exports it,
or when `README.md` documents it in backticks.  A name that only its own
unit tests call is dead surface: delete it, or document it.
"""

import ast
import re
from pathlib import Path

import gcvx

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gcvx"


def _referenced(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _public_definitions_and_references():
    """(module, name, top-level statement) per public def or class, and
    per top-level statement the names it refers to."""
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            refs.append((stmt, _referenced(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) \
                    and not stmt.name.startswith("_"):
                defs.append((path.stem, stmt.name, stmt))
    return defs, refs


def test_every_public_name_has_a_user():
    defs, refs = _public_definitions_and_references()
    perfbench = "\n".join(p.read_text()
                          for p in sorted((ROOT / "perfbench").glob("*.py")))
    readme = set()
    for span in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        readme |= set(re.findall(r"[A-Za-z_]\w*", span))
    unused = []
    for module, name, own in defs:
        if name in gcvx.__all__ or name in readme:
            continue
        if any(name in names for stmt, names in refs if stmt is not own):
            continue
        if re.search(rf"\b{name}\b", perfbench):
            continue
        unused.append(f"{module}.{name}")
    assert unused == []
