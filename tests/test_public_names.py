"""Every public name in the package has a caller outside the tests.

The library, the demos and the benchmark harness are parsed, never run.  A
public (non-underscore) top-level function or class, or a public method,
counts as called when its name appears in that code as a ``Name``, an
``Attribute`` or an import alias anywhere outside its own definition.  The
names the package namespace exports are the declared API and count as
called.  Test files are not callers.
"""

import ast
import collections
from pathlib import Path

import cuffdim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cuffdim"
CALLER_DIRS = (ROOT / "src", ROOT / "demos", ROOT / "bench")


def used_names(tree) -> collections.Counter:
    """Occurrences of each name a tree reads, as a Name, an Attribute or an import."""
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
    return out


def public_definitions(tree):
    """(qualified name, node) of each public top-level def or class and public method."""
    defs = (ast.FunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for d in CALLER_DIRS
        for path in sorted(d.rglob("*.py"))
        if not path.name.startswith("test_")
    }
    used = sum((used_names(t) for t in trees.values()), collections.Counter())
    exported = set(cuffdim._HOME)
    orphans = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, node in public_definitions(trees[path]):
            if qualname in exported:
                continue
            if used[node.name] - used_names(node)[node.name] <= 0:
                orphans.append(f"{path.name}:{node.lineno} {qualname}")
    assert not orphans, "public names with no caller outside the tests:\n" + "\n".join(orphans)
