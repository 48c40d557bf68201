"""No module of the package reads a private name of a sibling module.

A quantity that two modules need gets a public name in the module that
computes it, so each is computed in one place.  The private module
``_frozen``, the base class of the package's records, is exempt.
"""

import ast
from pathlib import Path

import infodyn

PACKAGE = Path(infodyn.__file__).parent
EXEMPT = {"_frozen"}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(source):
    """("module.name", line) for each private name of a sibling module that ``source`` reads."""
    tree = ast.parse(source)
    siblings = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                # from . import gaussian, matfun
                siblings.update({a.asname or a.name: a.name for a in node.names})
            elif node.module not in EXEMPT:
                # from .gaussian import _name
                found += [
                    (f"{node.module}.{a.name}", node.lineno)
                    for a in node.names
                    if _private(a.name)
                ]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and siblings[node.value.id] not in EXEMPT
            and _private(node.attr)
        ):
            found.append((f"{siblings[node.value.id]}.{node.attr}", node.lineno))
    return sorted(found)


def test_guard_finds_both_forms_of_private_read():
    source = (
        "from . import matfun as mf\n"
        "from .gaussian import _kl, posterior\n"
        "from ._frozen import Frozen\n"
        "mf._require_pd(w, 'x')\n"
        "mf.require_pd(w, 'x')\n"
        "self._spectrum\n"
    )
    assert private_reads(source) == [("gaussian._kl", 2), ("matfun._require_pd", 4)]


def test_no_module_reads_a_private_name_of_a_sibling():
    found = {
        path.name: private_reads(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: reads for name, reads in found.items() if reads} == {}
