import ast
import pkgutil
from pathlib import Path

import fissile


def test_every_module_star_imports():
    # a name in __all__ that the module does not define breaks `import *`
    for info in pkgutil.iter_modules(fissile.__path__):
        namespace = {}
        exec(f"from fissile.{info.name} import *", namespace)
        assert namespace, info.name


def test_no_assert_statement_in_the_package():
    # ``python -O`` strips assert statements, so no guarantee may rest on one
    found = []
    for path in sorted(Path(fissile.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, found
