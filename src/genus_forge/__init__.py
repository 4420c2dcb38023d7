"""genus-forge: exact multiplicative genera, elliptic and Witten genus
q-expansions, twisted Dirac index series, Eisenstein fits, analytic index
bounds, and covering-space simulations over a manifold catalog.

The package exports the entry points the README and the CLI use; every
other function lives in its module (`genus_forge.genera`,
`genus_forge.elliptic`, ...).
"""

from .bounds import BoundParams, c_of_b, index_bound_report
from .catalog import entry_to_dict, load_default_catalog, resolve
from .covering import cover_diameter, l2_betti_ratio, tower
from .elliptic import EllKind, elliptic_genus, twisted_indices
from .errors import DataError, GenusForgeError, NumericalError, TooLarge
from .genera import genus_source, genus_value
from .manifolds import GenusKind
from .modular import modular_relation_check, witten_fit

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BoundParams",
    "DataError",
    "EllKind",
    "GenusForgeError",
    "GenusKind",
    "NumericalError",
    "TooLarge",
    "c_of_b",
    "cover_diameter",
    "elliptic_genus",
    "entry_to_dict",
    "genus_source",
    "genus_value",
    "index_bound_report",
    "l2_betti_ratio",
    "load_default_catalog",
    "modular_relation_check",
    "resolve",
    "tower",
    "twisted_indices",
    "witten_fit",
]
