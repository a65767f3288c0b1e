"""Every name the package exports, and every member of an exported class,
has a use outside the tests.

A name that ``dualmod/__init__.py`` imports from a submodule must be read
somewhere in ``src/`` other than inside its own definition, or in
``demos/`` or ``perfbench/``.  A public method or class-body attribute of
an exported class must be read there as an attribute (``x.name``).
Dataclass fields are not checked.  Members are matched by name alone, so a
member is seen as read when any attribute of that name is: the check cannot
see that only tests read ``DensityDecomposition.k`` (were it brought back),
since ``TraceRow.k`` shares the name.  A name or member that only tests
read belongs in the tests (``tests/oracles.py`` for oracles), unless
``KEPT`` gives the reason it stays.
"""

import ast
import glob
import inspect
import os

import dualmod as dm

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.dirname(dm.__file__)

KEPT = {
    "WeightedPermutationList": "the carrier of a decomposition certificate (ROADMAP item 4)",
    "allocation_from_mixture": "turns a certificate's mixtures into (x, y) (ROADMAP item 4)",
    "partial_derivative": "the a-posteriori Frank-Wolfe gap (ROADMAP item 7)",
    "sort_by_density": "the documented name of the sorting oracle",
    "STRICTLY_CONVEX_KINDS": "the paper's strictly convex generators",
    "WeightedPermutationList.single": "a one-order certificate (ROADMAP item 4)",
    "WeightedPermutationList.uniform": "a certificate of equally weighted orders (ROADMAP item 4)",
}


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), path)


def exported():
    tree = parse(os.path.join(PACKAGE, "__init__.py"))
    return sorted(
        a.name for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module for a in node.names
    )


def without_annotations(tree):
    # a name in an annotation is no use of it
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            node.returns = None
        elif isinstance(node, ast.arg):
            node.annotation = None
        elif isinstance(node, ast.AnnAssign):
            node.annotation = ast.Constant(None)
    return tree


class Reads(ast.NodeVisitor):
    """The names and attributes a module reads, leaving out annotations and a
    name read inside its own definition; with ``imports``, the names it
    imports too.  ``attrs`` holds the attributes alone."""

    def __init__(self, imports):
        self.imports = imports
        self.inside = []
        self.names = set()
        self.attrs = set()

    def visit_definition(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_ClassDef = visit_definition

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id not in self.inside:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self.inside:
            self.names.add(node.attr)
            self.attrs.add(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if self.imports:
            self.names.update(a.name for a in node.names)


def read_in(paths, imports):
    reads = Reads(imports)
    for path in paths:
        reads.visit(without_annotations(parse(path)))
    return reads


def reads_outside_tests():
    """(names, attributes) read in src/, demos/ and perfbench/."""
    modules = [p for p in glob.glob(os.path.join(PACKAGE, "*.py")) if not p.endswith("__init__.py")]
    scripts = glob.glob(os.path.join(REPO, "demos", "*.py")) + glob.glob(os.path.join(REPO, "perfbench", "*.py"))
    src, other = read_in(modules, imports=False), read_in(scripts, imports=True)
    return src.names | other.names, src.attrs | other.attrs


def members():
    """Each public method and class-body attribute of an exported class, as
    "Class.member"; an annotated one only outside a dataclass, where it is no field."""
    out = []
    for name in exported():
        cls = getattr(dm, name)
        if not inspect.isclass(cls):
            continue
        node = next(n for n in ast.walk(parse(inspect.getsourcefile(cls))) if isinstance(n, ast.ClassDef) and n.name == name)
        dataclass = any("dataclass" in ast.unparse(d) for d in node.decorator_list)
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                found = [item.name]
            elif isinstance(item, ast.Assign):
                found = [t.id for t in item.targets if isinstance(t, ast.Name)]
            elif isinstance(item, ast.AnnAssign) and not dataclass and isinstance(item.target, ast.Name):
                found = [item.target.id]
            else:
                found = []
            out += [f"{name}.{member}" for member in found if not member.startswith("_")]
    return out


def test_every_export_is_used_or_kept():
    used, _ = reads_outside_tests()
    unused = [name for name in exported() if name not in used and name not in KEPT]
    assert unused == [], "only tests read these exports; move them to tests/ or give a reason in KEPT"


def test_every_member_is_used_or_kept():
    _, read = reads_outside_tests()
    unused = [m for m in members() if m.split(".")[1] not in read and m not in KEPT]
    assert unused == [], "only tests read these members; move them to tests/ or give a reason in KEPT"


def test_kept_names_are_exported_and_unused():
    # an entry that outlived its reason would hide the next test-only export
    used, read = reads_outside_tests()
    assert sorted(name for name in KEPT if "." not in name and (name in used or name not in exported())) == []
    assert sorted(m for m in KEPT if "." in m and (m.split(".")[1] in read or m not in members())) == []

