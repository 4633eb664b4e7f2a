import ast
from pathlib import Path

import kohnspec

#: Exports the library itself never calls: acceptance criterion 04 checks
#: every mode's kernel through its Rayleigh quotient with them.
CRITERION_04 = {"kernel_function", "rayleigh_quotient"}

#: Test oracles only: the library's eigensolvers are self-contained.
ORACLE_ONLY = {"linalg", "scipy", "mpmath"}


def test_exports_resolve_to_their_modules():
    # a name deleted from its module but left in the lazy table would fail
    # only on first use
    for name in kohnspec.__all__:
        value = getattr(kohnspec, name)
        assert value.__module__ == f"kohnspec.{kohnspec._MODULE_OF[name]}", name


def _library_nodes():
    """(file name, node) for every AST node of the modules under src/kohnspec."""
    for path in Path(kohnspec.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def test_every_export_has_a_caller_in_the_library():
    # names read anywhere in the package outside __init__; a definition
    # binds its name without reading it
    read = set()
    for name, node in _library_nodes():
        if name != "__init__.py":
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert set(kohnspec.__all__) - read == CRITERION_04


def _names(node):
    """The dotted name parts that ``node`` imports, reads or spells as a string."""
    if isinstance(node, ast.Import):
        return {part for alias in node.names for part in alias.name.split(".")}
    if isinstance(node, ast.ImportFrom):
        return set((node.module or "").split(".")) | {alias.name for alias in node.names}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return set(node.value.split("."))
    return set()


def test_library_names_no_oracle_module():
    # numpy.linalg, scipy and mpmath check the library in the tests; the
    # library itself neither imports them nor reaches them by attribute or
    # by a module name in a string
    for name, node in _library_nodes():
        found = _names(node) & ORACLE_ONLY
        assert not found, (name, node.lineno, found)
