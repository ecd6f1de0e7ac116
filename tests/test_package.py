import pkgutil

import fissile


def test_every_module_star_imports():
    # a name in __all__ that the module does not define breaks `import *`
    for info in pkgutil.iter_modules(fissile.__path__):
        namespace = {}
        exec(f"from fissile.{info.name} import *", namespace)
        assert namespace, info.name
