"""genus-forge: exact multiplicative genera, elliptic and Witten genus
q-expansions, twisted Dirac index series, Eisenstein fits, analytic index
bounds, and covering-space simulations over a manifold catalog.

The package exports the entry points the README and the CLI use; every
other function lives in its module (`genus_forge.genera`,
`genus_forge.elliptic`, ...).  Only the error classes and the genus names
are imported with the package.  Every other exported name imports its
module on first use (PEP 562) and is then cached here, so
`genus_forge.resolve` costs one import the first time and a plain
attribute read afterwards.
"""

from importlib import import_module

from .errors import ELLIPTIC, GENERA, DataError, GenusForgeError, NumericalError, TooLarge

__version__ = "0.1.0"

# exported name -> the module that defines it
_LAZY = {
    "BoundParams": "bounds",
    "c_of_b": "bounds",
    "index_bound_report": "bounds",
    "entry_to_dict": "catalog",
    "load_default_catalog": "catalog",
    "resolve": "catalog",
    "cover_diameter": "covering",
    "l2_betti_ratio": "covering",
    "tower": "covering",
    "elliptic_genus": "elliptic",
    "twisted_indices": "elliptic",
    "genus_source": "genera",
    "genus_value": "genera",
    "modular_relation_check": "modular",
    "witten_fit": "modular",
}

__all__ = ["__version__", "ELLIPTIC", "GENERA", "DataError", "GenusForgeError", "NumericalError",
           "TooLarge", *_LAZY]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
