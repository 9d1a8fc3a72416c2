"""The public API of ``leraytop``, pinned so that a removal shows in the
diff of this file."""
import ast
import types
from pathlib import Path

import leraytop

PUBLIC_NAMES = [
    "AltChainComplex", "BettiVector", "Box", "BoxFamily", "ComplexError",
    "E1Page", "FrFamily", "GuardExceeded", "HellyReport", "LerayCertificate",
    "MultiPointComplex", "PartitionedComplex", "SimplicialComplex",
    "UnionFamily", "alt_chain_complex", "check_alt_chain_iso",
    "check_amenta", "check_euler", "check_hl", "check_intersection_bound",
    "check_mps_vanishing", "check_projection_theorem",
    "check_proof_vanishing", "double_point_closure", "e1_page",
    "euler_characteristic", "extremal_example", "fiber_bound",
    "generalized_mpc", "helly_number", "helly_number_direct", "induced",
    "intersection", "leray_by_definition", "leray_by_links", "link",
    "make_complex", "make_fr_family", "make_partitioned",
    "multiple_point_complex", "nerve", "pieces_projection", "project",
    "random_fr_family", "random_partitioned_complex", "reduced_betti",
    "subdivision", "unreduced_betti",
]


def _exported():
    # submodules are left out: which ones are attributes depends on what
    # has been imported so far
    return sorted(n for n in dir(leraytop) if not n.startswith("_")
                  and not isinstance(getattr(leraytop, n), types.ModuleType))


def test_public_names_are_pinned():
    assert _exported() == PUBLIC_NAMES


def _unused_imports(path):
    """Names that a module imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_library_modules_use_every_name_they_import():
    # the package's __init__ imports names to re-export them
    modules = [p for p in Path(leraytop.__file__).parent.glob("*.py")
               if p.name != "__init__.py"]
    assert len(modules) >= 9
    unused = {p.name: _unused_imports(p) for p in sorted(modules)}
    assert {name: u for name, u in unused.items() if u} == {}


def _private_names_defined(tree):
    """The private names a module's top level or one of its class bodies
    defines or assigns."""
    bodies = [tree.body] + [node.body for node in tree.body
                            if isinstance(node, ast.ClassDef)]
    names = set()
    for node in (node for body in bodies for node in body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


LIBRARY = Path(leraytop.__file__).parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


MODULES = {p.stem for p in LIBRARY.glob("*.py")} - {"__init__"}


def _module_names(tree):
    """The names a module binds to ``leraytop`` or to one of its modules,
    as ``import leraytop``, ``from leraytop import core`` or ``from .
    import helly as helly_mod`` bind them."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names
                         if a.name.split(".")[0] == "leraytop")
        elif isinstance(node, ast.ImportFrom) and (
                node.module == "leraytop" or node.level and not node.module):
            bound.update(a.asname or a.name for a in node.names
                         if a.name in MODULES)
    return bound


def _on_module(node, bound):
    """True if the attribute ``node`` is read off a name in ``bound``, or
    off one of its modules (``leraytop.core.link``)."""
    base = node.value
    if isinstance(base, ast.Attribute):
        return base.attr in MODULES and _on_module(base, bound)
    return isinstance(base, ast.Name) and base.id in bound


def _names_read(trees, on_modules=False):
    """The names the modules read by name, as an attribute or through an
    import.  With ``on_modules`` an attribute counts only when it is read
    off a ``leraytop`` module, so ``", ".join`` reads no ``join``."""
    read = set()
    for tree in trees:
        bound = _module_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                if not on_modules or _on_module(node, bound):
                    read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return read


def test_library_private_names_are_all_referenced():
    # a private helper, method or class attribute that nothing reads is
    # dead code: each one must be read by name, as an attribute or through
    # an import somewhere in the package.  Any attribute counts, since
    # private methods and attributes are read off instances (``self._walk``)
    trees = [ast.parse(p.read_text()) for p in LIBRARY.glob("*.py")]
    defined = set().union(*map(_private_names_defined, trees))
    assert len(defined) >= 20
    assert sorted(defined - _names_read(trees)) == []


def test_library_public_names_are_exported_or_referenced():
    # a public function or class that the package does not export is only
    # alive if the package or the benchmark reads it
    trees = [ast.parse(p.read_text()) for p in LIBRARY.glob("*.py")]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    unexported = defined - set(PUBLIC_NAMES)
    assert len(unexported) >= 20
    trees += [ast.parse(p.read_text()) for p in PERFBENCH.glob("*.py")]
    assert sorted(unexported - _names_read(trees, on_modules=True)) == []


def test_exported_names_are_read_outside_the_tests():
    # an exported name that only the tests read belongs in tests/oracles.py;
    # the package's __init__ only re-exports, so its reads do not count
    trees = [ast.parse(p.read_text()) for p in LIBRARY.glob("*.py")
             if p.name != "__init__.py"]
    trees += [ast.parse(p.read_text()) for p in PERFBENCH.glob("*.py")]
    read = _names_read(trees, on_modules=True)
    assert [n for n in _exported() if n not in read] == []


def _public_methods(tree):
    """``Class.name`` for each public method and property that a module's
    classes define."""
    return {"%s.%s" % (node.name, f.name) for node in tree.body
            if isinstance(node, ast.ClassDef) for f in node.body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}


def test_library_public_methods_are_read_outside_the_tests():
    # likewise for a method or property of a library class: the package or
    # the benchmark must read it.  Methods are read off instances, so an
    # attribute of that name off any object counts
    trees = [ast.parse(p.read_text()) for p in LIBRARY.glob("*.py")]
    methods = set().union(*map(_public_methods, trees))
    assert len(methods) >= 10
    trees += [ast.parse(p.read_text()) for p in PERFBENCH.glob("*.py")]
    read = {n.attr for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)}
    assert sorted(m for m in methods if m.split(".")[1] not in read) == []


# The private library names the oracles share.  Each is a helper that
# computes none of what the oracles check: the guards, so that an oracle
# refuses as the library does, the vertex-table check, and the reading of
# facets off a face set that is closed under faces.
ORACLE_PRIVATE_IMPORTS = [
    "_check_orbit_work", "_check_same_table", "_check_simplex_count",
    "_check_vertex_bound", "_closed_facets",
]


def test_oracles_share_only_the_pinned_private_names():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = {a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "leraytop"
                for a in node.names if a.name.startswith("_")}
    assert sorted(imported) == ORACLE_PRIVATE_IMPORTS
