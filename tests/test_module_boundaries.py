"""No module of the package reads a private name of a sibling module, and no public name is dead.

A quantity that two modules need gets a public name in the module that
computes it, so each is computed in one place.  The private module
``_frozen``, the base class of the package's records, is exempt.  Every
public module-level function and class of the package is named by the
package or a demo outside its own definition; one that only the tests or
the lazy exports name is dead code.
"""

import ast
from pathlib import Path

import infodyn

PACKAGE = Path(infodyn.__file__).parent
DEMOS = PACKAGE.parents[1] / "demos"
EXEMPT = {"_frozen"}
# ROADMAP item 2 plans to delete the dense dynamics module, which only the
# tests and the lazy exports name; until then its class is allowed unused.
UNREFERENCED = ["dynamics.AffineDynamics"]


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


def _names(node):
    """The names ``node`` refers to: Name ids, attribute names and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield from sub.name.split(".")


def unreferenced(modules, others):
    """"module.name" of each public top-level function or class of ``modules`` named nowhere else.

    ``modules`` maps a module name to its source and ``others`` lists more
    sources that may refer to them.  A name counts as referred to when a
    top-level statement other than its own definition, in any of the
    sources, names it.  Strings do not count.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    statements = [stmt for tree in trees.values() for stmt in tree.body]
    statements += [stmt for source in others for stmt in ast.parse(source).body]
    names = {id(stmt): set(_names(stmt)) for stmt in statements}
    return [
        f"{module}.{node.name}"
        for module, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in names[id(stmt)] for stmt in statements if stmt is not node)
    ]


def test_dead_code_guard_counts_names_attributes_and_imports_but_not_strings():
    modules = {
        "a": "def used_by_name():\n    pass\n\ndef used_by_attr():\n    pass\n\n"
             "def recursive():\n    return recursive()\n\nclass Named:\n    pass\n\n"
             "EXPORTS = {'Named': 'a'}\n",
        "b": "from .a import used_by_name\nfrom . import a\na.used_by_attr()\n",
    }
    assert unreferenced(modules, []) == ["a.recursive", "a.Named"]
    assert unreferenced(modules, ["x = Named()\n"]) == ["a.recursive"]


def test_every_public_function_and_class_is_used():
    modules = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    others = [(PACKAGE / "__init__.py").read_text(encoding="utf-8")]
    others += [path.read_text(encoding="utf-8") for path in sorted(DEMOS.glob("*.py"))]
    assert unreferenced(modules, others) == UNREFERENCED
