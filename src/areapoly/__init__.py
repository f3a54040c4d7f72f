"""Exact area relations of triangulated trapezoids and parallelograms.

The package computes, with exact arithmetic throughout:

- combinatorial triangulations of a quadrilateral and their validation,
- geometric dissections and drawings, and the value each relation
  variable takes on a drawing (``variety.area_values``: the doubled
  signed frame and triangle areas),
- the area relation polynomials obtained by Groebner elimination,
- independent interpolation oracles cross-checking the elimination route,
- 2-adic colorings, rainbow triangle certificates, and the resulting
  equidissection obstructions.

See :mod:`areapoly.cli` for the command line surface.
"""

from .exact import INFINITY, format_rational, parse_rational, val2
from .poly import Poly, Ring, canonical_str, parse_polynomial

__all__ = [
    "INFINITY",
    "val2",
    "format_rational",
    "parse_rational",
    "Ring",
    "Poly",
    "canonical_str",
    "parse_polynomial",
]

__version__ = "0.1.0"
