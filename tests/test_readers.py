"""Every public function, class and method of the package has a reader.

A reader is a use of the name (a bare name or an attribute) in the
package itself, the benchmark, the acceptance tests or the command-line
tests.  Module tests do not count: a member that only its own tests call
is surface that nothing reads.  The few members kept without a reader are
listed with the reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cltdioph"
READERS = (sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py",
              ROOT / "tests" / "test_cli.py"])

#: public members kept without a reader, and why
KEPT = {
    "smoothing_rhs": "the smoothing inequality that lemma21_rhs specialises",
    "lemma61_lower": "held for certified Diophantine constants in bounds",
    "one_minus_abs_profile": "the profile 1 - |f| that those constants bound",
    "cf_expand": "held for the continued-fraction crossover and constants",
    "eps_profile": "held for certified Diophantine constants in bounds",
    "khinchine_r": "held for certified Diophantine constants in bounds",
    "zn_dist_exact": "exact rational oracle of the lattice builder",
    "lemma31_bound": "held for a non-uniform bound that is certified",
    "phi3_deriv": "the density of Phi3, whose roots are its stationary points",
}


def _trees(paths):
    return [ast.parse(p.read_text(), filename=str(p)) for p in paths]


def read_names() -> set[str]:
    names = set()
    for tree in _trees(READERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def public_members() -> set[str]:
    members = set()
    for tree in _trees(sorted(PACKAGE.glob("*.py"))):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                members.add(node.name)
            if isinstance(node, ast.ClassDef):
                members.update(item.name for item in node.body
                               if isinstance(item, ast.FunctionDef))
    return {name for name in members if not name.startswith("_")}


def test_every_public_member_is_read():
    unread = public_members() - read_names() - set(KEPT)
    assert not unread, f"public members that nothing reads: {sorted(unread)}"


def test_kept_members_have_no_reader():
    # a kept member that gained a reader, or was removed, leaves the list
    members, read = public_members(), read_names()
    assert sorted(name for name in KEPT
                  if name not in members or name in read) == []
