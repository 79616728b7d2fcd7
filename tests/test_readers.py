"""Every public function, class and method of the package has a reader,
and every command-line flag has a caller.

A reader is a use in the package itself, the benchmark, the acceptance
tests or the command-line tests.  Module tests do not count: a member that
only its own tests call is surface that nothing reads.  A module-level
function or class is read through ``module.name``, through a name imported
from its module, or by a use inside its own module, so a local variable
elsewhere that shares its name is not a read; a method is read by any
attribute of its name.  The few members kept without a reader are listed
with the reason.

Every name a package module imports is used in that module, apart from
the few that the benchmark rebinds there.  No package module imports
any of ``scipy`` when it is imported.

A flag has a caller when an argument list in the benchmark or the
command-line tests passes it after its subcommand.
"""

import argparse
import ast
from pathlib import Path

from cltdioph import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cltdioph"
READERS = (sorted((ROOT / "bench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py",
              ROOT / "tests" / "test_cli.py"])
CALLERS = (ROOT / "bench" / "run.py", ROOT / "tests" / "test_cli.py")

#: public members kept without a reader, and why
KEPT = {
    "cf_expand": "input of the continued-fraction crossover prediction",
    "zn_dist_exact": "exact rational oracle of the lattice builder",
    "phi3_deriv": "the density of Phi3, whose roots are its stationary points",
}

#: packages that no command needs and that take longer to import than a
#: small command takes to run; a function may import one in its body
HEAVY = ("scipy",)

#: (module, name) imported by a package module that never uses it: the
#: benchmark's layer tracer (bench/replay.py) rebinds these module
#: attributes, so the name must exist there
UNUSED_IMPORTS = {
    ("cli", "moments"), ("cli", "zn_dist"), ("rates", "zn_dist"),
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _package_trees():
    return {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}


def public_members(package):
    """(module, name) of each public module-level function and class, and
    the names of the public methods."""
    top, methods = set(), set()
    for module, tree in package.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                top.add((module, node.name))
            if isinstance(node, ast.ClassDef):
                methods.update(item.name for item in node.body
                               if isinstance(item, ast.FunctionDef))
    return ({m for m in top if not m[1].startswith("_")},
            {name for name in methods if not name.startswith("_")})


def _imported_module(node, in_package):
    """The package module a ``from ... import`` reads from: "" for the
    package itself, None for anything else."""
    if node.level == 1 and in_package:
        return node.module or ""
    if node.level == 0 and node.module:
        head, _, rest = node.module.partition(".")
        if head == "cltdioph":
            return rest
    return None


def reads(tree, own_module=None):
    """(module, name) pairs that ``tree`` reads, and its attribute names.
    ``own_module`` is the package module that ``tree`` is, if any."""
    aliases, pairs, attrs = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "cltdioph":
                    aliases[alias.asname or head] = rest if alias.asname \
                        else ""
        elif isinstance(node, ast.ImportFrom):
            module = _imported_module(node, own_module is not None)
            if module == "":
                aliases.update((a.asname or a.name, a.name)
                               for a in node.names)
            elif module is not None:
                pairs.update((module, a.name) for a in node.names)
        elif isinstance(node, ast.Name) and own_module is not None:
            pairs.add((own_module, node.id))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            module = _module_of(node.value, aliases)
            if module:
                pairs.add((module, node.attr))
    return pairs, attrs


def _module_of(expr, aliases):
    if isinstance(expr, ast.Name):
        return aliases.get(expr.id)
    if isinstance(expr, ast.Attribute) \
            and _module_of(expr.value, aliases) == "":
        return expr.attr
    return None


def unread(package, readers):
    """Public members of ``package`` (module -> tree) that neither the
    package nor ``readers`` (trees) read."""
    top, methods = public_members(package)
    pairs, attrs = set(), set()
    for own, tree in [*package.items(), *((None, t) for t in readers)]:
        p, a = reads(tree, own)
        pairs |= p
        attrs |= a
    return ({name for module, name in top if (module, name) not in pairs}
            | (methods - attrs))


def parser_flags():
    """(subcommand, flag) for every option that ``cli.build_parser`` adds."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {(command, flag) for command, p in sub.choices.items()
            for action in p._actions for flag in action.option_strings
            if flag != "--help" and flag.startswith("--")}


def passed_flags(trees, commands):
    """(subcommand, flag) pairs in the argument lists of ``trees``: in a
    tuple, list or call, each "--" string after a subcommand name."""
    pairs = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Tuple, ast.List)):
                items = node.elts
            elif isinstance(node, ast.Call):
                items = node.args
            else:
                continue
            command = None
            for item in items:
                if not (isinstance(item, ast.Constant)
                        and isinstance(item.value, str)):
                    continue
                if item.value in commands:
                    command = item.value
                elif command and item.value.startswith("--"):
                    pairs.add((command, item.value))
    return pairs


def unused_imports(tree):
    """Names that ``tree`` imports and never loads, nor lists in
    ``__all__``."""
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(e.value for e in node.value.elts)
    return imported - used


def import_time_modules(tree):
    """Modules that importing ``tree`` imports: those of every import
    statement outside a function body, with each name of a ``from``
    import also read as a submodule."""
    found, todo = set(), list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
            found.update(f"{node.module}.{a.name}" for a in node.names)
        todo.extend(ast.iter_child_nodes(node))
    return found


def _heavy(modules):
    return {m for m in modules
            if any(m == h or m.startswith(h + ".") for h in HEAVY)}


def _unread_now():
    return unread(_package_trees(), [_parse(p) for p in READERS])


def test_every_public_member_is_read():
    missing = _unread_now() - set(KEPT)
    assert not missing, f"public members that nothing reads: {sorted(missing)}"


def test_kept_members_have_no_reader():
    # a kept member that gained a reader, or was removed, leaves the list
    assert sorted(set(KEPT) - _unread_now()) == []


def test_every_import_is_used():
    unused = {(module, name) for module, tree in _package_trees().items()
              for name in unused_imports(tree)}
    assert unused == UNUSED_IMPORTS


def test_unused_imports_are_found():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\n"
                     "import numpy as np\n"
                     "from typing import Callable, Optional\n"
                     "from . import a, b\n"
                     "__all__ = ['b']\n"
                     "def f(x: Optional[int]) -> None:\n"
                     "    return np.zeros(x)\n")
    assert unused_imports(tree) == {"os", "Callable", "a"}


def test_no_heavy_import_at_module_level():
    heavy = {(module, m) for module, tree in _package_trees().items()
             for m in _heavy(import_time_modules(tree))}
    assert not heavy, f"imported with the package: {sorted(heavy)}"


def test_heavy_imports_are_found():
    tree = ast.parse("import scipy.optimize as so\n"
                     "import scipyx\n"
                     "from scipy import integrate\n"
                     "from scipy.special import ndtr\n"
                     "if True:\n"
                     "    from scipy.integrate._quadpack_py import quad\n"
                     "def f():\n"
                     "    from scipy.stats import norm\n")
    assert _heavy(import_time_modules(tree)) == {
        "scipy", "scipy.optimize", "scipy.integrate", "scipy.special",
        "scipy.special.ndtr", "scipy.integrate._quadpack_py",
        "scipy.integrate._quadpack_py.quad"}


def test_reads_resolve_per_module():
    package = {
        "a": ast.parse("def delta(): pass\n"
                       "def used(): pass\n"
                       "class Box:\n"
                       "    def size(self): pass\n"
                       "def _private(): pass\n"),
        "b": ast.parse("from .a import used\n"
                       "def _other():\n"
                       "    delta = 1\n"
                       "    return delta\n"),
    }
    # b's local variable named delta is not a read of a.delta
    assert unread(package, []) == {"delta", "Box", "size"}
    reader = ast.parse("from cltdioph import a as A\n"
                       "A.delta().size()\n"
                       "import cltdioph.a\n"
                       "cltdioph.a.Box\n")
    assert unread(package, [reader]) == set()


def test_every_flag_is_passed():
    flags = parser_flags()
    commands = {command for command, _ in flags}
    missing = flags - passed_flags([_parse(p) for p in CALLERS], commands)
    assert not missing, f"flags that nothing passes: {sorted(missing)}"
