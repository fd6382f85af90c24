"""Every public name in the package has a caller outside the tests.

The library, the demos and the benchmark harness are parsed, never run.  A
public (non-underscore) top-level function or class counts as called when
its name appears in that code as a ``Name``, an ``Attribute`` or an import
alias anywhere outside its own definition.  A public method counts as
called only through an ``Attribute`` read, an import alias or a class-body
alias such as ``__call__ = apply``: a bare ``Name`` is a local or a
parameter, and cannot reach a method.  The names the package namespace
exports are the declared API and count as called.  Test files are not
callers.
"""

import ast
import collections
from pathlib import Path

import cuffdim

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cuffdim"
CALLER_DIRS = (ROOT / "src", ROOT / "demos", ROOT / "bench")


def used_names(tree) -> tuple[collections.Counter, collections.Counter]:
    """Occurrences of each name a tree reads, as (bare, member) counts.

    ``bare`` counts ``Name`` nodes.  ``member`` counts the uses that can
    reach a method: ``Attribute`` reads, import aliases and class-body
    aliases (``__matmul__ = compose``).
    """
    bare, member = collections.Counter(), collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare[node.id] += 1
        elif isinstance(node, ast.Attribute):
            member[node.attr] += 1
        elif isinstance(node, ast.alias):
            member[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.Assign) and isinstance(item.value, ast.Name):
                    member[item.value.id] += 1
    return bare, member


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


def orphans(trees: dict, defining: list, exported: set) -> list[str]:
    """Public names defined in the ``defining`` paths that no tree in ``trees`` uses."""
    bare, member = collections.Counter(), collections.Counter()
    for tree in trees.values():
        b, m = used_names(tree)
        bare.update(b)
        member.update(m)
    out = []
    for path in defining:
        for qualname, node in public_definitions(trees[path]):
            if qualname in exported:
                continue
            own_bare, own_member = used_names(node)
            uses = member[node.name] - own_member[node.name]
            if "." not in qualname:  # a top-level name is also called bare
                uses += bare[node.name] - own_bare[node.name]
            if uses <= 0:
                out.append(f"{path.name}:{node.lineno} {qualname}")
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for d in CALLER_DIRS
        for path in sorted(d.rglob("*.py"))
        if not path.name.startswith("test_")
    }
    found = orphans(trees, sorted(PACKAGE.glob("*.py")), set(cuffdim._HOME))
    assert not found, "public names with no caller outside the tests:\n" + "\n".join(found)


SYNTHETIC = '''
class Cover:
    def word(self, i):
        return self.word(i - 1) if i else 0

    def walk(self):
        return self.step()

    def step(self):
        return 1

    __call__ = walk


def main(cover):
    word = cover()
    return word, Cover()
'''


def test_a_method_used_only_as_a_local_name_is_flagged():
    path = Path("synthetic.py")
    trees = {path: ast.parse(SYNTHETIC)}
    # word is a local variable in main and an attribute only inside its own body
    assert orphans(trees, [path], {"main"}) == ["synthetic.py:3 Cover.word"]
