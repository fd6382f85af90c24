"""Every public name and keyword in the package has a caller outside the tests.

The library, the demos and the benchmark harness are parsed, never run.  A
public (non-underscore) top-level function or class counts as called when
its name appears in that code as a ``Name``, an ``Attribute`` or an import
alias anywhere outside its own definition.  A public method counts as
called only through an ``Attribute`` read, an import alias or a class-body
alias such as ``__call__ = apply``: a bare ``Name`` is a local or a
parameter, and cannot reach a method.  The names the package namespace
exports are the declared API and count as called.  Test files are not
callers.

A public function's or method's parameter with a default counts as used
when some call outside its own definition, to a function or method of that
name, passes it: by keyword, by position (a method's ``self`` or ``cls``
is not a position the caller writes), through ``*args`` at or before its
position, or through ``**kwargs``.  A keyword that no such call passes is
a constant in disguise.
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


def caller_trees(dirs) -> dict:
    """Parsed trees of the Python files under ``dirs``, test files left out."""
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for d in dirs
        for path in sorted(d.rglob("*.py"))
        if not path.name.startswith("test_")
    }


def defaulted_parameters(node, is_method: bool):
    """(position, name) of each parameter of a def that has a default.

    The position is the one a caller writes, so a method's ``self`` or
    ``cls`` is not counted; a keyword-only parameter has no position.
    """
    args = node.args
    positional = args.posonlyargs + args.args
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
    skip = 1 if is_method and not static else 0
    first_default = len(positional) - len(args.defaults)
    for i, a in enumerate(positional):
        if i >= first_default:
            yield i - skip, a.arg
    for a, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, a.arg


def call_passes(call: ast.Call, position, name: str) -> bool:
    """Whether the call passes the parameter at ``position`` named ``name``."""
    if position is not None and any(
        i == position or isinstance(arg, ast.Starred) for i, arg in enumerate(call.args)
    ):
        return True
    return any(k.arg in (None, name) for k in call.keywords)


def unused_keywords(trees: dict, defining: list) -> tuple[list[str], int]:
    """Defaulted public parameters that no call in ``trees`` passes, and the
    count of defaulted public parameters."""
    calls = collections.defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls[name].append(node)
    out, total = [], 0
    for path in defining:
        for qualname, node in public_definitions(trees[path]):
            if isinstance(node, ast.ClassDef):
                continue
            own = {id(n) for n in ast.walk(node)}
            for position, name in defaulted_parameters(node, "." in qualname):
                total += 1
                if not any(
                    call_passes(c, position, name) for c in calls[node.name] if id(c) not in own
                ):
                    out.append(f"{path.name}:{node.lineno} {qualname}({name})")
    return out, total


def test_every_public_name_has_a_caller_outside_the_tests():
    trees = caller_trees(CALLER_DIRS)
    found = orphans(trees, sorted(PACKAGE.glob("*.py")), set(cuffdim._HOME))
    assert not found, "public names with no caller outside the tests:\n" + "\n".join(found)


def test_every_public_keyword_is_passed_outside_the_tests():
    found, _ = unused_keywords(caller_trees(CALLER_DIRS), sorted(PACKAGE.glob("*.py")))
    assert not found, "public keywords no caller outside the tests passes:\n" + "\n".join(found)


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


KEYWORD_LIB = '''
class Grid:
    def scale(self, x, factor=2):
        return x * factor

    @classmethod
    def make(cls, n, fill=0.0):
        return cls()


def solve(x, tol=1e-3, steps=8):
    return x


def run(grid):
    return solve(1.0, 1e-4), grid.scale(1, 3), Grid.make(2, 1.0)
'''


def test_keyword_gate_counts_positions_and_ignores_test_callers(tmp_path):
    (tmp_path / "lib.py").write_text(KEYWORD_LIB)
    (tmp_path / "test_lib.py").write_text("from lib import solve\nsolve(1.0, steps=3)\n")
    trees = caller_trees([tmp_path])
    assert list(trees) == [tmp_path / "lib.py"]
    found, total = unused_keywords(trees, [tmp_path / "lib.py"])
    # tol is passed only by position, steps only from a test file, and the
    # methods' second positional argument reaches factor and fill, not self or cls
    assert total == 4
    assert found == ["lib.py:11 solve(steps)"]
