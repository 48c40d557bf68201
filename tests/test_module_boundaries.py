"""No module of the package reads a private name of a sibling module, and no public name is dead.

A quantity that two modules need gets a public name in the module that
computes it, so each is computed in one place.  The private module
``_frozen``, the base class of the package's records, is exempt.  Every
public name of the package has a reader in the package or a demo: a
module-level function or class is named outside its own definition, a
module-level constant is loaded by name or as an attribute, and a method,
property or record field of a public class is loaded as an attribute.  A
name that only the tests, a string or the lazy exports name is dead code.
"""

import ast
from pathlib import Path

import infodyn

PACKAGE = Path(infodyn.__file__).parent
DEMOS = PACKAGE.parents[1] / "demos"
EXEMPT = {"_frozen"}
# ROADMAP item 2 plans to delete the dense dynamics module, which only the
# tests and the lazy exports name; until then its class and its method are
# allowed unread.
UNREFERENCED = ["dynamics.AffineDynamics", "dynamics.AffineDynamics.step_matrix"]


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


def _loads(trees):
    """The Name ids and the attribute names that ``trees`` load."""
    names, attributes = set(), set()
    for node in (sub for tree in trees for sub in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
    return names, attributes


def _assigned(stmt):
    """The names a top-level assignment binds."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [
        sub.id
        for target in targets
        for sub in ast.walk(target)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)
    ]


def _members(cls):
    """The methods, properties and annotated (NamedTuple) fields a class body defines."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id


def definitions(tree):
    """(qualified name, kind, node) of each public name a module defines.

    The kinds are "global" for a top-level function or class, "constant"
    for a top-level assignment and "member" for a method, property or field
    of a public class.  A record derived from ``Frozen`` lists its fields in
    ``_fields``, and ``Frozen`` reads each of them (``replace``, ``==``,
    pickling, ``repr``), so only annotated fields count as members.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, "global", node
            if isinstance(node, ast.ClassDef):
                for member in _members(node):
                    if not member.startswith("_"):
                        yield f"{node.name}.{member}", "member", node
        for name in _assigned(node):
            if not name.startswith("_"):
                yield name, "constant", node


def unreferenced(modules, others):
    """"module.name" of each public name of ``modules`` that nothing reads.

    ``modules`` maps a module name to its source and ``others`` lists more
    sources that may read them.  A top-level function or class is read when
    a top-level statement other than its own definition, in any of the
    sources, names it.  A constant is read when a source loads its name or
    an attribute of that name; a method, property or field of a public class
    only through an attribute load.  Strings do not count.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    all_trees = [*trees.values(), *(ast.parse(source) for source in others)]
    statements = [stmt for tree in all_trees for stmt in tree.body]
    names = {id(stmt): set(_names(stmt)) for stmt in statements}
    loaded, attributes = _loads(all_trees)

    def read(qualified, kind, node):
        name = qualified.rpartition(".")[2]
        if kind == "global":
            return any(name in names[id(stmt)] for stmt in statements if stmt is not node)
        if kind == "constant":
            return name in loaded or name in attributes
        return name in attributes

    return [
        f"{module}.{qualified}"
        for module, tree in sorted(trees.items())
        for qualified, kind, node in definitions(tree)
        if not read(qualified, kind, node)
    ]


def stale_allowances(allowed, modules, others):
    """The entries of ``allowed`` that name no public definition of ``modules``, or one that is read."""
    defined = {
        f"{module}.{qualified}"
        for module, source in modules.items()
        for qualified, _, _ in definitions(ast.parse(source))
    }
    unread = set(unreferenced(modules, others))
    return [name for name in allowed if name not in defined or name not in unread]


def test_dead_code_guard_counts_names_attributes_and_imports_but_not_strings():
    modules = {
        "a": "def used_by_name():\n    pass\n\ndef used_by_attr():\n    pass\n\n"
             "def recursive():\n    return recursive()\n\nclass Named:\n    pass\n\n"
             "EXPORTS = {'Named': 'a'}\n",
        "b": "from .a import used_by_name\nfrom . import a\na.used_by_attr()\n",
    }
    assert unreferenced(modules, []) == ["a.recursive", "a.Named", "a.EXPORTS"]
    assert unreferenced(modules, ["x = Named()\n"]) == ["a.recursive", "a.EXPORTS"]


def test_dead_code_guard_counts_constants_members_and_fields_only_where_loaded():
    modules = {
        "a": "from typing import NamedTuple\n\n"
             "BY_NAME = 1\nBY_ATTR = 2\nIN_STRING = 3\nBY_TEST = 4\n\n"
             "class Record(NamedTuple):\n"
             "    read: int\n    in_string: int\n    by_test: int\n    stored: int\n\n"
             "    def method(self):\n        return self.read\n\n"
             "    @property\n    def named(self):\n        return BY_NAME\n\n"
             "    def by_test_method(self):\n        return 'self.in_string IN_STRING'\n",
        "b": "from . import a\n"
             "record = a.Record(a.BY_ATTR, 0, 0, 0)\n"
             "record.method()\n"
             "record.stored = 1\n"
             "named = 1\nprint(named)\n",
    }
    assert unreferenced(modules, []) == [
        "a.IN_STRING",
        "a.BY_TEST",
        "a.Record.in_string",
        "a.Record.by_test",
        "a.Record.stored",
        "a.Record.named",
        "a.Record.by_test_method",
    ]
    # The test sources are never among the readers; this one would read three.
    test = "def test_it():\n    assert a.BY_TEST and r.by_test and r.by_test_method()\n"
    assert "a.BY_TEST" not in unreferenced(modules, [test])


def test_stale_allowances_are_names_that_are_gone_or_read():
    modules = {"a": "def unread():\n    pass\n\ndef read():\n    pass\n\nread()\n"}
    allowed = ["a.unread", "a.read", "a.gone"]
    assert stale_allowances(allowed, modules, []) == ["a.read", "a.gone"]


def _sources():
    modules = {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    others = [(PACKAGE / "__init__.py").read_text(encoding="utf-8")]
    others += [path.read_text(encoding="utf-8") for path in sorted(DEMOS.glob("*.py"))]
    return modules, others


def test_every_public_name_is_read():
    assert [name for name in unreferenced(*_sources()) if name not in UNREFERENCED] == []


def test_every_allowed_unread_name_exists_and_is_unread():
    assert stale_allowances(UNREFERENCED, *_sources()) == []
