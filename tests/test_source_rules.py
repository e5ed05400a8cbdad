"""Rules on the package source itself.

numpy.linalg stays out of the package so the tests can use it as an
independent oracle, and the package starts no threads: the search runs its
trials in order in the calling thread.  Every function parameter and every
command line option is read by the code that receives it, so no knob is
accepted and then ignored.  Every name the package defines is read by the
package itself (a method only where it is called, not where an attribute of
the same name is read), or listed as library surface with the reason it
stays.
Tolerances are relative to the input's magnitude, so no max(1, ...) floor
turns one into an absolute bound.  Inputs are scaled to unit size by one
rule, clinalg.unit_scaled (Quaternion._unit_scaled for a scalar), so no
other function takes a binary exponent, and the scalar form serves only the
scalar's own abs and inverse.  Z goes to W = Z Z* and its spectrum by one
route, spectra.gram_spectrum.  "Hermitian" has one rule, judged once per
solve, and every structure verdict goes through one rule, clinalg._within,
by the one magnitude, the largest |component|.  Only the writer of mirrored matrices
reads a float's bits.  The per-step loops of the Householder
reductions neither stack, concatenate nor tile arrays and look up no float
limits.
"""

import argparse
import ast
import collections
import inspect
import pathlib
import re

from qskew.cli import build_parser

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qskew"
BANNED = ("numpy.linalg", "concurrent.futures", "threading")

# (function, parameter) pairs allowed to go unread, with the reason
UNREAD_ALLOWED = {
    ("__setattr__", "name"): "immutability guard: every assignment raises",
    ("__setattr__", "value"): "immutability guard: every assignment raises",
}

# the functions that may take a binary exponent with frexp: the one scaling
# rule, its scalar form, and the power of two above a Gershgorin bound
FREXP_ALLOWED = {("clinalg.py", "unit_scaled"), ("quaternion.py", "_unit_scaled"),
                 ("clinalg.py", "_tridiagonal_eig")}
# where Quaternion._unit_scaled may be named: its definition and the scalar
# abs and inverse; a triple or a matrix is scaled as one array by
# clinalg.unit_scaled
SCALAR_SCALING_ALLOWED = {("quaternion.py", "_unit_scaled"), ("quaternion.py", "__abs__"),
                          ("quaternion.py", "inverse")}

# W = Z Z* and its right spectrum come from Z by one route,
# spectra.gram_spectrum, which decides how Z is scaled: the CLI scales no Z
# itself, and skew neither forms nor solves a W of its own
ROUTE_BANNED = {"cli.py": ("unit_scaled",),
                "skew.py": ("right_eigenvalues_hermitian", "gram_product")}

# "Hermitian" has one rule, clinalg._is_hermitian, which QuatMatrix.is_hermitian
# and herm_eig apply; a right spectrum leaves it to herm_eig, so spectra does
# not name is_hermitian and no W is checked twice.  The one magnitude,
# _max_abs, is the largest |component|, which cannot overflow; hypot serves
# only the head of a Householder column in _reflector
HERMITIAN_RULE_ALLOWED = {("clinalg.py", "_is_hermitian"), ("clinalg.py", "herm_eig"),
                          ("qmatrix.py", None), ("qmatrix.py", "is_hermitian")}
HYPOT_ALLOWED = {("clinalg.py", "_reflector")}

# the one structure rule, clinalg._within, and its callers: the Hermitian
# rule and the skew, closeness and adjoint symmetry checks of QuatMatrix;
# every other verdict on structure (the dual Hermitian test, the agreement
# check of gram_product) calls one of them, so none judges by a rule of
# its own, and the one magnitude is read in clinalg and qmatrix alone
WITHIN_ALLOWED = {("clinalg.py", "_within"), ("clinalg.py", "_is_hermitian"),
                  ("qmatrix.py", None), ("qmatrix.py", "is_skew_symmetric"),
                  ("qmatrix.py", "allclose"), ("qmatrix.py", "from_chi")}

# a matrix's bits (its int64 view and the sign bit 2^63) are read by one
# writer, matio._mirror_json, which checks that a skew Z or a Hermitian W is
# bitwise mirrored before it writes the upper triangle's text for both
BITS_ALLOWED = {("matio.py", "_mirror_json")}

# calls that build a temporary array, or look up float limits, through
# Python-level numpy code: no per-step loop of a Householder reduction makes
# them, directly or through a package function it calls, because such a loop
# runs once per row of every matrix solved
STEP_BANNED = {"np.stack", "np.concatenate", "np.tile", "np.finfo"}
HOUSEHOLDER_REDUCTIONS = ("_tridiagonal", "_skew_tridiagonal")

# names defined in the package that no package code reads, with the reason
# each stays in the library
LIBRARY_ONLY = {
    "K": "basis unit exported beside I and J",
    "canonical": "the block matrix a HuaForm certifies, for callers; hua_decompose "
                 "builds the same blocks for a whole stack with _canonical",
    "ONE": "unit quaternion exported for callers",
    "ZERO": "zero quaternion exported for callers",
    "real": "real part of a scalar quaternion, for callers",
    "from_entries": "a matrix from nested Quaternion, scalar or 4-component entries, "
                    "for callers",
    "matrix": "Z of a SkewTriple or of a search hit as a QuatMatrix, for callers",
    "max_abs": "the one magnitude of a matrix, its largest |component|, for callers; "
               "the package's checks read it through _within",
    "left_mul": "shows that left and right scalar products differ",
    "right_mul": "shows that left and right scalar products differ",
    "is_dq_hermitian": "the two dual Hermitian routes cross-checked (paper row 8)",
    "is_positive_definite": "the definite half of the Gram claim; is_solid and the CLI "
                            "read RightSpectrum.definite, its one rule",
    "is_positive_semidefinite": "the semidefinite half of the Gram claim",
    "is_solid": "the 3x3 solid case as a predicate on Z",
    "positive_clusters": "the clusters themselves; even_clusters decides evenness from "
                         "the same rule without listing them",
    "quaternion_even_multiplicity_check": "the quaternion side of the even multiplicity contrast",
    "reference_4x4_variant": "the second reading of the published 4x4 example",
    "save_matrix": "writes the JSON schema that load_matrix reads",
    "trial_seed": "one trial's stream key, for callers; the package draws its keys "
                  "a range at a time with _trial_keys",
}


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and base + "." + node.attr
    return None


def _referenced_names(tree):
    """Modules and attributes a source file imports or touches, dotted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from ("%s.%s" % (node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            name = _dotted(node)
            if name:
                yield "numpy" + name[2:] if name.startswith("np.") else name


def test_package_avoids_linalg_and_threads():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    hits = ["%s: %s" % (path.name, name)
            for path in paths
            for name in _referenced_names(ast.parse(path.read_text()))
            if any(name == b or name.startswith(b + ".") for b in BANNED)]
    assert not hits, hits


def _functions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield getattr(node, "name", "<lambda>"), node


def _parameters(fn):
    a = fn.args
    names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
    names += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
    return [n for n in names if n not in ("self", "cls")]


def _loaded_names(fn):
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    return {node.id for stmt in body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_parameter_is_read():
    unread = ["%s: %s(%s)" % (path.name, name, param)
              for path in sorted(SRC.glob("*.py"))
              for name, fn in _functions(ast.parse(path.read_text()))
              for param in _parameters(fn)
              if param not in _loaded_names(fn)
              and (name, param) not in UNREAD_ALLOWED]
    assert not unread, unread


def test_every_cli_option_is_read():
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    unread = []
    for command, sub in subparsers.choices.items():
        source = inspect.getsource(sub.get_default("func"))
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            read = re.search(r"\bargs\.%s\b" % action.dest, source)
            if action.dest == "tol":
                read = read or "_resolve_tol(args" in source
            if not read:
                unread.append("%s %s" % (command, action.option_strings
                                         or action.dest))
    assert not unread, unread


def test_no_absolute_tolerance_floors():
    floors = ["%s:%d" % (path.name, node.lineno)
              for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and _dotted(node.func) == "max"
              and any(isinstance(arg, ast.Constant) and type(arg.value) in (int, float)
                      and arg.value == 1 for arg in node.args)]
    assert not floors, floors


def _found_outside(match, allowed):
    """The "file: function" of each node for which match(node) holds,
    outside the (file, function) pairs allowed."""
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for fname, fn in _functions(tree):  # outer functions come first
            owner.update((id(node), fname) for node in ast.walk(fn))
        stray += ["%s: %s" % (path.name, owner.get(id(node), "<module>"))
                  for node in ast.walk(tree)
                  if match(node) and (path.name, owner.get(id(node))) not in allowed]
    return stray


def _uses_outside(name, allowed):
    """The "file: function" of each node that names name (a read, an
    attribute, a definition or an import) outside the (file, function)
    pairs allowed."""
    return _found_outside(
        lambda node: name in (getattr(node, "id", None), getattr(node, "attr", None),
                              getattr(node, "name", None), getattr(node, "asname", None)),
        allowed)


def _is_sign_bit(node):
    """2^63, the sign bit of a float seen as int64, as a power, a shift or
    a literal."""
    if isinstance(node, ast.Constant):
        return node.value == 2 ** 63
    return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Pow, ast.LShift))
            and [getattr(x, "value", None) for x in (node.left, node.right)]
            == ([2, 63] if isinstance(node.op, ast.Pow) else [1, 63]))


def test_one_scaling_rule():
    stray = _uses_outside("frexp", FREXP_ALLOWED)
    assert not stray, stray


def test_scalar_scaling_serves_only_the_scalar():
    stray = _uses_outside("_unit_scaled", SCALAR_SCALING_ALLOWED)
    assert not stray, stray


def test_one_route_from_z_to_the_spectrum_of_w():
    stray = [use for module, names in ROUTE_BANNED.items() for name in names
             for use in _uses_outside(name, set()) if use.startswith(module + ":")]
    assert not stray, stray


def test_one_hermitian_rule_and_one_entry_measure():
    stray = _uses_outside("_is_hermitian", HERMITIAN_RULE_ALLOWED)
    stray += [use for use in _uses_outside("is_hermitian", set())
              if use.startswith("spectra.py:")]
    stray += _uses_outside("hypot", HYPOT_ALLOWED)
    defined = [path.name for path in sorted(SRC.glob("*.py"))
               for name, _ in _functions(ast.parse(path.read_text())) if name == "_max_abs"]
    assert not stray and defined == ["clinalg.py"], (stray, defined)


def test_one_structure_rule():
    stray = _uses_outside("_within", WITHIN_ALLOWED)
    stray += [use for use in _uses_outside("_max_abs", set())
              if not use.startswith(("clinalg.py:", "qmatrix.py:"))]
    assert not stray, stray


def test_only_the_mirror_writer_reads_bits():
    stray = _uses_outside("int64", BITS_ALLOWED) + _found_outside(_is_sign_bit, BITS_ALLOWED)
    assert not stray, stray


def test_householder_steps_build_no_temporaries():
    tree = ast.parse((SRC / "clinalg.py").read_text())
    defs = dict(_functions(tree))
    hits = []
    for name in HOUSEHOLDER_REDUCTIONS:
        loops = [node for node in ast.walk(defs[name]) if isinstance(node, ast.For)]
        assert loops, name
        todo, seen = [stmt for loop in loops for stmt in loop.body], set()
        while todo:
            for node in ast.walk(todo.pop()):
                callee = _dotted(node.func) if isinstance(node, ast.Call) else None
                if callee in STEP_BANNED:
                    hits.append("%s: %s at line %d" % (name, callee, node.lineno))
                elif callee in defs and callee not in seen:
                    seen.add(callee)
                    todo.extend(defs[callee].body)
    assert not hits, hits


def _definitions(tree):
    """Module-level functions, classes and constants, and class methods."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((n.id, node) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((item.name, item) for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _plain_methods(trees):
    """Names of the methods defined in a class without @property."""
    return {item.name for tree in trees for node in tree.body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and "property" not in map(_dotted, item.decorator_list)}


def _module_names(trees):
    """Names of the module-level functions, classes and constants."""
    return {name for tree in trees for name, node in _definitions(tree)
            if any(node is top for top in tree.body)}


def _name_uses(node, methods, names):
    """How often each name is read or taken as an attribute inside node.  A
    plain name counts only when it is one of names, the module-level
    definitions, so a local variable does not count as a use of a method it
    shares its name with; an attribute named after one of methods counts
    only where it is called, so numpy's .real does not count as a use of a
    method real()."""
    called = {id(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id in names
        or isinstance(n, ast.Attribute) and (n.attr not in methods
                                             or id(n) in called))


def test_every_defined_name_is_used():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    methods = _plain_methods(trees.values())
    names = _module_names(trees.values())
    uses = sum((_name_uses(tree, methods, names) for tree in trees.values()),
               collections.Counter())
    # a definition's uses of its own name (recursion) do not count
    unused = ["%s: %s" % (module, name)
              for module, tree in trees.items()
              for name, node in _definitions(tree)
              if not (name.startswith("__") and name.endswith("__"))
              and uses[name] <= _name_uses(node, methods, names)[name]
              and name not in LIBRARY_ONLY]
    assert not unused, unused
    stale = [name for name in LIBRARY_ONLY if uses[name]]
    assert not stale, stale
