"""Exact fixed-point counting for framed sheaves on Hirzebruch surfaces.

The package computes torus-fixed-point data, equivariant tangent
characters, Morse indexes and Poincare polynomials of moduli spaces of
framed torsion-free sheaves on Hirzebruch surfaces, together with an
independent instanton-counting oracle on the A1 ALE space.  All
arithmetic is exact: arbitrary-precision integers and rationals
throughout.

Importing the package loads none of its submodules: each public name is
imported from its submodule on first use (PEP 562), so a command-line
request loads only the layers it runs.
"""

import sys

__version__ = "0.1.0"


class InvariantError(Exception):
    """A structural invariant failed; signals inconsistent data or a bug."""


# The public names of each submodule.
_EXPORTS = {
    "ale": (
        "ale_poincare",
        "ale_tangent_character",
        "enumerate_colored_fixed_points",
    ),
    "counting": (
        "check_nonempty",
        "enumerate_fixed_points",
        "enumerate_reduced_fixed_points",
        "hilbert_series_r1",
        "indexed_points",
        "l_prime",
        "morse_index_closed",
        "poincare_polynomial",
        "rank2_series_closed",
        "rank2_series_direct",
    ),
    "laurent": (
        "Character",
        "QSeries",
        "TPolynomial",
        "ale_ordering",
        "main_ordering",
    ),
    "localization": (
        "FixedPointDatum",
        "ModuliParams",
        "ReducedFixedPointDatum",
        "reduced_tangent_character",
        "tangent_character",
    ),
    "partitions": ("ColoredDiagram", "PartitionDiagram", "enumerate_partitions"),
}
# public name -> full name of the submodule that defines it
_SUBMODULE = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(["InvariantError", *_SUBMODULE])]


def __getattr__(name: str):
    # Called only for names not in the module's namespace.  An unknown name,
    # such as a submodule not yet imported, raises AttributeError, so that
    # `from hirzebruch import ale` falls back to importing the submodule.
    # Nothing is bound here, so each read gets the submodule's current binding;
    # the import system runs only while the submodule is not yet loaded.
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    loaded = sys.modules.get(module)
    if loaded is None:
        import importlib

        loaded = importlib.import_module(module)
    return getattr(loaded, name)


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__))
