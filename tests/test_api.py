import ast
from pathlib import Path

import kohnspec

#: Exports the library itself never calls: acceptance criterion 04 checks
#: every mode's kernel through its Rayleigh quotient with them.
CRITERION_04 = {"kernel_function", "rayleigh_quotient"}


def test_exports_resolve_to_their_modules():
    # a name deleted from its module but left in the lazy table would fail
    # only on first use
    for name in kohnspec.__all__:
        value = getattr(kohnspec, name)
        assert value.__module__ == f"kohnspec.{kohnspec._MODULE_OF[name]}", name


def test_every_export_has_a_caller_in_the_library():
    # names read anywhere in the package outside __init__; a definition
    # binds its name without reading it
    read = set()
    for path in Path(kohnspec.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    assert set(kohnspec.__all__) - read == CRITERION_04
