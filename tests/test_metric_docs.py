"""The metric tables of ``docs/observability.md`` match what ``src/``
registers, in both directions, with the kind each table names.

A registration is a ``counter(``, ``gauge(`` or ``histogram(`` call
whose first argument is a literal ``repro.`` name, or an f-string with
one ``{var}`` placeholder that this test expands: ``var`` is a
parameter of the enclosing function (its values are the string
literals that calls to that function in the same module pass for it) or
the target of an enclosing ``for`` over a literal tuple. Calls that
forward a name held in a variable are not registrations.

A table row names its metric in the first cell and its kind in the
second. ``a`` / ``b`` in one cell names two metrics, where ``b``
replaces the last dotted part of ``a``; a ``{...}`` label suffix is
ignored.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOC = ROOT / "docs" / "observability.md"
KINDS = ("counter", "gauge", "histogram")
ROW = re.compile(r"^\| (`repro\..*?`) \| (\w+) \|")


def _name_of(func):
    return getattr(func, "attr", None) or getattr(func, "id", None)


def _walk(node, parents=()):
    """``(node, enclosing nodes)`` for every node under ``node``."""
    yield node, parents
    for child in ast.iter_child_nodes(node):
        yield from _walk(child, parents + (node,))


def _strings(nodes):
    return [n.value for n in nodes
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _values_of(var, parents, tree):
    """The string constants ``var`` takes where an f-string reads it."""
    for node in reversed(parents):
        if isinstance(node, ast.For):
            target = node.target
            names = ([target] if isinstance(target, ast.Name)
                     else list(getattr(target, "elts", ())))
            ids = [getattr(n, "id", None) for n in names]
            if var in ids and isinstance(node.iter, (ast.Tuple, ast.List)):
                if isinstance(target, ast.Name):
                    return _strings(node.iter.elts)
                at = ids.index(var)
                return _strings(elt.elts[at] for elt in node.iter.elts
                                if isinstance(elt, ast.Tuple))
        if isinstance(node, ast.FunctionDef):
            params = [a.arg for a in node.args.args]
            if var not in params:
                return []
            at = params.index(var)
            if params[0] in ("self", "cls"):
                at -= 1
            return _strings(call.args[at] for call in ast.walk(tree)
                            if isinstance(call, ast.Call)
                            and _name_of(call.func) == node.name
                            and len(call.args) > at)
    return []


def _registered():
    """``{metric name: {kinds}}`` over every registration in ``src/``,
    and the f-strings this test could not expand."""
    names, unexpanded = defaultdict(set), []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node, parents in _walk(tree):
            if not (isinstance(node, ast.Call) and node.args
                    and _name_of(node.func) in KINDS):
                continue
            kind, first = _name_of(node.func), node.args[0]
            if isinstance(first, ast.Constant) \
                    and str(first.value).startswith("repro."):
                names[first.value].add(kind)
            elif isinstance(first, ast.JoinedStr):
                holes = [v for v in first.values
                         if isinstance(v, ast.FormattedValue)]
                values = (_values_of(holes[0].value.id, parents, tree)
                          if len(holes) == 1
                          and isinstance(holes[0].value, ast.Name) else [])
                if not values:
                    unexpanded.append(f"{path.relative_to(ROOT)}:"
                                      f"{node.lineno}")
                for value in values:
                    name = "".join(
                        value if isinstance(v, ast.FormattedValue)
                        else v.value for v in first.values)
                    names[name].add(kind)
    return names, unexpanded


def _documented():
    """``{metric name: {kinds}}`` over the doc's table rows."""
    names = defaultdict(set)
    for line in DOC.read_text().splitlines():
        match = ROW.match(line)
        if not match or match.group(2) not in KINDS:
            continue
        cells = [re.sub(r"\{.*\}", "", cell.strip("` "))
                 for cell in match.group(1).split(" / ")]
        base = cells[0].rsplit(".", 1)[0]
        names[cells[0]].add(match.group(2))
        for suffix in cells[1:]:
            names[f"{base}.{suffix}"].add(match.group(2))
    return names


def test_registered_metrics_are_documented():
    registered, unexpanded = _registered()
    assert not unexpanded, f"f-string metric names not expanded: {unexpanded}"
    documented = _documented()
    missing = sorted(set(registered) - set(documented))
    assert not missing, f"registered but not in {DOC.name}'s tables: {missing}"


def test_documented_metrics_are_registered():
    registered, _ = _registered()
    stale = sorted(set(_documented()) - set(registered))
    assert not stale, f"in {DOC.name}'s tables but never registered: {stale}"


def test_documented_kinds_match():
    registered, _ = _registered()
    documented = _documented()
    wrong = {name: (sorted(documented[name]), sorted(kinds))
             for name, kinds in registered.items()
             if name in documented and documented[name] != kinds}
    assert not wrong, f"(documented, registered) kinds differ: {wrong}"

