"""Rules on the package source itself.

numpy.linalg stays out of the package so the tests can use it as an
independent oracle, and the package starts no threads: the search runs its
trials in order in the calling thread.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "qskew"
BANNED = ("numpy.linalg", "concurrent.futures", "threading")


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
