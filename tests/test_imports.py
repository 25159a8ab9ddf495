"""What the package imports, and when.

Every name a module of the package imports is used in it: neither pyflakes
nor ruff is a dependency, so this is the unused-import lint, and an import
left behind by a refactor fails here.  Likewise every private module-level
name is used somewhere in the package, so a helper that a move leaves behind
fails here, and every private attribute a class assigns to self is read, by
the class or on another object anywhere in the package, so a cache that a
refactor leaves behind fails here.  A nested function that calls itself
holds its own cell, a reference cycle that keeps everything it closes over
alive until the cyclic collector runs, so the function around it must
``del`` it in a ``finally``.
The modules a construction loads are integer arithmetic: none of them
imports ``bounds``, ``fractions`` or ``decimal`` when it loads.
``import permcodes`` loads no submodule, each CLI command
loads only the modules it runs, and a usage error loads none of them.  The
construction's steps run only inside ``perms.construct``: ``cli`` calls none.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import permcodes

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "permcodes"
MODULES = sorted(PACKAGE.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname == alias.name:
                    continue  # "from m import x as x" re-exports x on purpose
                # "import a.b" binds a; "from m import x as y" binds y
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nimport sys\nfrom a import b as c\nsys.exit()\n") == [
        "line 1: os",
        "line 3: c",
    ]
    # the explicit re-export form, as mypy and ruff's F401 read it
    assert _unused_imports("from a import b as b\n") == []
    assert _unused_imports("from a import b as c\n") == ["line 1: c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


def _references(tree) -> Counter:
    """How often each name is read, as a name, an attribute or an import."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unused_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names (_x, not dunders) that no module reads
    outside their own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    total = sum(map(_references, trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            own = _references(node)
            unused += [
                f"{module}: {name}"
                for name in names
                if name.startswith("_") and not name.endswith("__")
                and total[name] <= own[name]
            ]
    return unused


def test_the_check_sees_an_unused_private_name():
    sources = {
        "a": "def _helper(n):\n    return _helper(n - 1)\n\n\ndef _used():\n    pass\n"
             "_LEFT = 1\n_KEPT: int = 2\n",
        "b": "import a\nfrom a import _used\n\n_used(a._KEPT)\n",
    }
    assert _unused_private_names(sources) == ["a: _helper", "a: _LEFT"]


def test_package_uses_every_private_name():
    sources = {path.name: path.read_text() for path in MODULES}
    assert _unused_private_names(sources) == []


def _on_self(node) -> bool:
    return isinstance(node.value, ast.Name) and node.value.id == "self"


def _unread_private_attributes(sources: dict[str, str]) -> list[str]:
    """The private attributes (self._x, not dunders) that a class assigns
    and reads neither through self nor, in any module, on another object;
    each by its first assignment."""
    classes, foreign = [], set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                classes.append((module, node))
            elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
                if not _on_self(node):
                    foreign.add(node.attr)
    unread = []
    for module, cls in classes:
        own, assigned = set(), {}
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and _on_self(node):
                if isinstance(node.ctx, ast.Store):
                    assigned.setdefault(node.attr, node.lineno)
                else:
                    own.add(node.attr)
        unread += [
            f"{module}:{line}: {cls.name}.{name}"
            for name, line in assigned.items()
            if name.startswith("_") and not name.endswith("__") and name not in own | foreign
        ]
    return unread


def test_the_check_sees_an_unread_private_attribute():
    sources = {
        "a": "class A:\n    def __init__(self):\n        self._cache = {}\n"
             "        self._kept, self.public = 1, 2\n        self._count = 0\n"
             "        self._count += 1\n        self._table = self.__dict__ = {}\n",
        # B reads its own _table; that reads none of A's
        "b": "class B:\n    def __init__(self):\n        self._table = {}\n\n"
             "    def get(self, a):\n        return self._table, a._kept\n",
    }
    assert _unread_private_attributes(sources) == [
        "a:3: A._cache", "a:5: A._count", "a:7: A._table"
    ]


def test_package_reads_every_private_attribute():
    sources = {path.name: path.read_text() for path in MODULES}
    assert _unread_private_attributes(sources) == []


def _recursive_closures(source: str) -> dict[str, bool]:
    """Map "outer.inner" to whether outer deletes inner in a finally, for
    each nested function inner that refers to its own name."""
    found = {}

    def freed(outer, name):
        return any(
            isinstance(node, ast.Delete)
            and any(isinstance(target, ast.Name) and target.id == name for target in node.targets)
            for block in ast.walk(outer) if isinstance(block, ast.Try)
            for stmt in block.finalbody for node in ast.walk(stmt)
        )

    def visit(node, outer):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, outer)
                continue
            if outer is not None and any(
                isinstance(n, ast.Name) and n.id == child.name
                for stmt in child.body for n in ast.walk(stmt)
            ):
                found[f"{outer.name}.{child.name}"] = freed(outer, child.name)
            visit(child, child)

    visit(ast.parse(source), None)
    return found


def test_the_check_sees_a_recursive_closure_left_in_a_cycle():
    source = (
        "def a():\n    def walk(n):\n        return walk(n - 1) if n else 0\n"
        "    return walk(3)\n\n\n"
        "def b():\n    def walk(n):\n        return walk(n - 1) if n else 0\n"
        "    try:\n        return walk(3)\n    finally:\n        del walk\n\n\n"
        "def c():\n    def leaf(n):\n        return n\n    return leaf(3)\n"
    )
    assert _recursive_closures(source) == {"a.walk": False, "b.walk": True}


def test_package_frees_every_recursive_closure():
    found = {
        f"{path.name}: {name}": freed
        for path in MODULES for name, freed in _recursive_closures(path.read_text()).items()
    }
    assert {"combinat.py: _max_clique.expand", "linear.py: _lightest.extend"} <= found.keys()
    assert [name for name, freed in found.items() if not freed] == []


# the modules a construction or a file check loads: integer arithmetic only,
# so none of them imports the rational bounds when it loads
INTEGER_MODULES = ["combinat", "gf", "linear", "mds", "perms", "verifier"]
RATIONAL = {"bounds", "fractions", "decimal"}


def _load_time_imports(source: str) -> set[str]:
    """Each dotted part of every module that source imports outside a
    function body, that is, when it loads ("from . import x" names x)."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = []
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module] if child.module else [a.name for a in child.names]
            found.update(part for name in names for part in name.split("."))
            visit(child)

    visit(ast.parse(source))
    return found


def test_the_check_sees_a_rational_import_at_load_time():
    source = (
        "import math\nfrom .errors import ParameterError\nfrom . import bounds\n"
        "if True:\n    import fractions as f\n\n\n"
        "class A:\n    from decimal import Decimal\n\n\n"
        "def late():\n    from .bounds import gv_lower\n    import random\n"
    )
    assert _load_time_imports(source) == {"math", "errors", "bounds", "fractions", "decimal"}
    assert _load_time_imports("from permcodes.bounds import gv_lower\n") & RATIONAL == {"bounds"}


@pytest.mark.parametrize("module", INTEGER_MODULES)
def test_integer_module_loads_no_rational_arithmetic(module):
    assert _load_time_imports((PACKAGE / f"{module}.py").read_text()) & RATIONAL == set()


# ---------------------------------------------------------------------------
# Import plan


def _python(args, cwd):
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_import_permcodes_loads_no_submodule(tmp_path):
    code = "import sys, permcodes; print(*sorted(m for m in sys.modules if 'permcodes' in m))"
    assert _python(["-c", code], tmp_path).stdout == "permcodes\n"


def test_every_root_name_is_its_home_module_object():
    assert permcodes.__all__ == sorted(set(permcodes.__all__))
    for name in permcodes.__all__:
        obj = getattr(permcodes, name)
        assert obj.__module__.startswith("permcodes."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    namespace = {}
    exec("from permcodes import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == permcodes.__all__


def test_construct_and_verify_share_one_checker():
    # the distance check a construction is certified with is the one verify runs
    from permcodes import linear, perms, verifier

    assert perms.code_min_distance is verifier.code_min_distance
    assert perms.read_permutation_code is verifier.read_permutation_code
    assert linear._file_records is verifier._file_records
    assert linear._write_records is verifier._write_records


def test_an_unknown_root_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        permcodes.no_such_name
    assert not hasattr(permcodes, "_max_clique")  # private names stay home


# subcommand -> (argv, the permcodes modules it loads); a CLI process runs
# as __main__, so permcodes.cli itself is never among them
PLANS = {
    "field": ("field --q 4 --tables", {"errors", "gf"}),
    "code-search": ("code-search --n 6 --k 2 --d 4 --q 4 --seed 3",
                    {"errors", "gf", "linear", "verifier"}),
    "table": ("table --d 6 --n-min 7 --n-max 9", {"errors", "gf", "bounds"}),
    "compare new-vs-old": ("compare --mode new-vs-old --n 10 --d 6", {"errors", "gf", "bounds"}),
    # A_2(4, 2) = 8 takes the clique search
    "compare amds-vs-old": ("compare --mode amds-vs-old --q 4 --alpha 2 --b 5/8",
                            {"errors", "gf", "bounds", "combinat"}),
    "construct": ("construct --source rs --q 5 --n 5 --k 3 --d 3 --gamma identity --seed 1",
                  {"errors", "gf", "combinat", "linear", "mds", "perms", "verifier"}),
    "verify": ("verify pc.txt --d 3", {"errors", "verifier"}),
}

# subcommand -> standard modules it must not load: a construction and a file
# check are integer arithmetic and load no fraction, and only a seeded search
# draws a random number (the clique search seeds itself by a first-fit pass).
# The command runs under python -S, so no site .pth file imports any of them
# first.
UNLOADED = {
    "table": {"random"},
    "compare new-vs-old": {"random"},
    "compare amds-vs-old": {"random"},
    "construct": {"fractions", "decimal", "numbers"},
    "verify": {"fractions", "decimal", "random"},
}

# runs the CLI as python -m would, and records sys.modules, in load order,
# when the interpreter exits; python -S skips site start-up, sitecustomize
# included, so the recorder is installed here
RECORDER = """import atexit, runpy, sys


def _record():
    with open({path!r}, "w") as fh:
        fh.write("\\n".join(sys.modules))


atexit.register(_record)
runpy.run_module("permcodes.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("command", PLANS)
def test_cli_command_loads_only_its_modules(tmp_path, command):
    argv, modules = PLANS[command]
    record = tmp_path / "modules.txt"
    (tmp_path / "pc.txt").write_text("5 2 3\n1 2 3 4 5\n2 3 1 4 5\n")
    done = _python(["-S", "-c", RECORDER.format(path=str(record)), *argv.split()], tmp_path)
    assert done.returncode == 0, done.stderr
    loaded = record.read_text().split("\n")
    ours = [m for m in loaded if m.startswith("permcodes.")]
    assert {m.removeprefix("permcodes.") for m in ours} == modules
    assert not UNLOADED.get(command, set()) & set(loaded)


# argv -> its stderr: argparse rejects --d x before any command runs, and
# construct raises the usage errors that its flags alone decide before it
# imports anything
USAGE_ERRORS = {
    "construct --d x --source rs": "usage error: argument --d: invalid int value: 'x'\n",
    "construct --source rs --q 7 --n 6 --k 4 --d 3":
        "usage error: --seed is required (full-weight dual search)\n",
    "construct --source rs --q 7 --n 6 --k 4 --d 3 --gamma greedy --no-ones-row":
        "usage error: --gamma greedy requires --seed\n",
    "construct --d 3 --source rs --q 7 --n 6 --seed 1":
        "usage error: --source rs needs --q, --n and --k\n",
    "construct --d 3 --source file --seed 1": "usage error: --source file needs --code-file\n",
}


def test_cli_usage_error_loads_no_command_module(tmp_path):
    record = tmp_path / "modules.txt"
    for argv, stderr in USAGE_ERRORS.items():
        done = _python(["-S", "-c", RECORDER.format(path=str(record)), *argv.split()], tmp_path)
        assert (done.returncode, done.stderr) == (1, stderr), argv
        loaded = record.read_text().split("\n")
        assert [m for m in loaded if m.startswith("permcodes")] == [
            "permcodes", "permcodes.errors"
        ], argv


# the construction's steps, which cli reaches only through perms.construct
RECIPE_STEPS = {
    "min_distance", "find_full_weight_dual_codeword", "normalize_first_row_ones",
    "max_code_in_K", "lift_code_into_K", "identity_perm", "construct_permutation_code",
}


def _recipe_calls(source: str) -> list[str]:
    """The recipe steps that source calls, by name or as an attribute."""
    called = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in RECIPE_STEPS:
                called.append(f"line {node.lineno}: {name}")
    return called


def test_the_check_sees_a_recipe_step():
    source = "from . import linear\nfrom .perms import identity_perm\n" \
             "linear.min_distance(c)\nidentity_perm(6)\nperms.construct(c, 3)\n"
    assert _recipe_calls(source) == ["line 3: min_distance", "line 4: identity_perm"]


def test_cli_holds_no_construction_step():
    assert _recipe_calls((PACKAGE / "cli.py").read_text()) == []
