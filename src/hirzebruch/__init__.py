"""Exact fixed-point counting for framed sheaves on Hirzebruch surfaces.

The package computes torus-fixed-point data, equivariant tangent
characters, Morse indexes and Poincare polynomials of moduli spaces of
framed torsion-free sheaves on Hirzebruch surfaces, together with an
independent instanton-counting oracle on the A1 ALE space.  All
arithmetic is exact: arbitrary-precision integers and rationals
throughout.
"""

__version__ = "0.1.0"

from .ale import (
    ColoredFixedPoint,
    ale_index,
    ale_poincare,
    ale_tangent_character,
    enumerate_colored_fixed_points,
)
from .counting import (
    IndexedPoint,
    check_nonempty,
    component_factor,
    enumerate_fixed_points,
    enumerate_reduced_fixed_points,
    hilbert_series_r1,
    indexed_points,
    l_prime,
    morse_index_closed,
    poincare_polynomial,
    rank2_series_closed,
    rank2_series_direct,
)
from .laurent import (
    Character,
    OrderingSpec,
    QSeries,
    TPolynomial,
    ale_ordering,
    main_ordering,
)
from .localization import (
    FixedPointDatum,
    InvariantError,
    ModuliParams,
    ReducedFixedPointDatum,
    l_character,
    n_character,
    reduced_tangent_character,
    tangent_character,
)
from .partitions import ColoredDiagram, PartitionDiagram, enumerate_partitions

__all__ = [
    "__version__",
    "Character",
    "ColoredDiagram",
    "ColoredFixedPoint",
    "FixedPointDatum",
    "IndexedPoint",
    "InvariantError",
    "ModuliParams",
    "OrderingSpec",
    "PartitionDiagram",
    "QSeries",
    "ReducedFixedPointDatum",
    "TPolynomial",
    "ale_index",
    "ale_ordering",
    "ale_poincare",
    "ale_tangent_character",
    "check_nonempty",
    "component_factor",
    "enumerate_colored_fixed_points",
    "enumerate_fixed_points",
    "enumerate_partitions",
    "enumerate_reduced_fixed_points",
    "hilbert_series_r1",
    "indexed_points",
    "l_character",
    "l_prime",
    "main_ordering",
    "morse_index_closed",
    "n_character",
    "poincare_polynomial",
    "rank2_series_closed",
    "rank2_series_direct",
    "reduced_tangent_character",
    "tangent_character",
]
