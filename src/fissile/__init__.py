"""Exact-arithmetic calculus of fissile ensembles over finite universes.

Each name of ``__all__`` is imported from its submodule on first use (PEP
562), so importing one submodule, as a construct or check does, imports
only the modules it reads.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "ensembles": (
        "Ensemble", "SubgroupGenerators", "augmentation", "combining_product",
        "map_ensemble", "singleton", "subgroup_membership",
    ),
    "fissilizer": ("fissilize", "is_fissile", "q_square"),
    "layouts": ("LayoutLattice", "enumerate_layouts", "layout_geq", "layout_meet"),
    "posets": ("FinitePoset", "lift_limit", "nabla", "nabla_inverse"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_SUBMODULE, "__version__"]


def __getattr__(name):
    """The export ``name``, imported from its submodule and bound here."""
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value
    return value
