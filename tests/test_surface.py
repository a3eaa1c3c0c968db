"""Guards on the shape of the library's source.

Every public top-level function and class has a user: a name counts as
used when another part of `src/gcvx` refers to it, when the benchmark in
`perfbench/` names it, when `gcvx.__all__` exports it, or when
`README.md` documents it in backticks.  A name that only its own unit
tests call is dead surface: delete it, or document it.

A point is its position, and its name is only a label: no library code
looks a point up by name.  A position is checked by one rule,
`kernel.check_positions`, and no module keeps a copy of it.  A point of
the unit interval is checked by one rule too, `kernel.check_unit`.

A distribution over distributions lists its support in mass order, and
one merge step, `giry._merged`, is the only code that sorts a support.

A law check returns `(ok, witness)`, with `(True, None)` for a pass: no
library code puts a verdict into a dict, apart from the few dicts whose
format is fixed from outside (`VERDICT_DICTS_KEPT`).
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


def _name_lookups(tree) -> list[str]:
    """Every `<...points>.index` or `<...elements>.index`, called or passed
    on, and every use of `atom_index` or `atom_of`, as "line: source"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "index":
            owner = node.value
            owner = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", "")
            if owner.endswith(("points", "elements")):
                found.append(node)
        elif getattr(node, "id", getattr(node, "attr", None)) in ("atom_index", "atom_of"):
            found.append(node)
    return [f"{n.lineno}: {ast.unparse(n)}" for n in found]


def test_points_are_not_looked_up_by_name():
    # `mask_of` is where a name from the user becomes a position
    lookups = {path.name: found for path in sorted(SRC.glob("*.py"))
               if (found := _name_lookups(ast.parse(path.read_text())))}
    assert lookups == {}


def _position_rule_copies(tree) -> list[str]:
    """Every comparison with a `range(...)` call, the old position test
    `x in range(n)`, and every definition of a `check_positions`, as
    "line: source"."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = (node.left, *node.comparators)
            if any(isinstance(o, ast.Call) and getattr(o.func, "id", None) == "range"
                   for o in operands):
                found.append(f"{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.FunctionDef) and \
                node.name.lstrip("_") == "check_positions":
            found.append(f"{node.lineno}: def {node.name}")
    return found


def test_positions_are_checked_by_one_rule():
    copies = {path.name: found for path in sorted(SRC.glob("*.py"))
              if (found := _position_rule_copies(ast.parse(path.read_text())))}
    assert list(copies) == ["kernel.py"]
    assert [line.split(": ")[1] for line in copies["kernel.py"]] == \
        ["def check_positions"]


def _is_bound(node, value: int) -> bool:
    """Whether node is the literal `value` or its Fraction name, ZERO or
    ONE."""
    if isinstance(node, ast.Constant):
        return node.value == value and node.value.__class__ is int
    return isinstance(node, ast.Name) and node.id == ("ZERO", "ONE")[value]


def _unit_rule_copies(tree) -> list[str]:
    """The innermost function around every chained test that x lies in
    [0, 1], written `ZERO <= x <= ONE` or `0 <= x <= 1`, or the same
    read from the right."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        elif isinstance(node, ast.Compare) and len(node.ops) == 2:
            lo, hi = node.left, node.comparators[1]
            if all(isinstance(op, ast.GtE) for op in node.ops):
                lo, hi = hi, lo
            elif not all(isinstance(op, ast.LtE) for op in node.ops):
                lo = hi = None
            if _is_bound(lo, 0) and _is_bound(hi, 1):
                found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_a_point_of_the_unit_interval_is_checked_by_one_rule():
    copies = {path.stem: found for path in sorted(SRC.glob("*.py"))
              if (found := _unit_rule_copies(ast.parse(path.read_text())))}
    assert copies == {"kernel": ["check_unit"]}


def _uses(tree, name: str) -> list[str]:
    """The innermost function or method around every use of `name`,
    called or passed on."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        elif getattr(node, "id", getattr(node, "attr", None)) == name:
            found.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_supports_are_sorted_by_one_merge_step():
    users = {path.stem: found for path in sorted(SRC.glob("*.py"))
             if (found := _uses(ast.parse(path.read_text()), "_by_mass"))}
    assert users == {"giry": ["_merged"]}


VERDICT_KEYS = {"passed", "injective", "entries"}

# (function, keys) of the dicts that keep a verdict key, each for a reason
VERDICT_DICTS_KEPT = {
    # the benchmark's polytope workload reads both keys
    ("eval_hull_identity", frozenset({"passed", "point"})),
    # the failure entries in wa_check's witness, whose text reports print
    ("wa_check", frozenset({"law", "value", "passed", "got"})),
    ("wa_check", frozenset({"law", "endo", "fn", "passed"})),
    # the report file, where "passed" counts the passing instances
    ("to_json", frozenset({"suite", "instances", "passed", "failures",
                           "instanceIndex"})),
}


def _verdict_dicts(tree) -> list[str]:
    """Every dict display holding a verdict key that VERDICT_DICTS_KEPT
    does not name, as "function:line"."""
    found = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        elif isinstance(node, ast.Dict):
            keys = frozenset(k.value for k in node.keys
                             if isinstance(k, ast.Constant))
            if keys & VERDICT_KEYS and (function, keys) not in VERDICT_DICTS_KEPT:
                found.append(f"{function}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_law_checks_return_ok_and_witness():
    sites = {path.stem: found for path in sorted(SRC.glob("*.py"))
             if (found := _verdict_dicts(ast.parse(path.read_text())))}
    assert sites == {}
