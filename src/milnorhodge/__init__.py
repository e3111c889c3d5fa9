"""Equivariant Hodge invariants of line-arrangement Milnor fibers.

The package computes, exactly over the integers and rationals:

* representation-ring arithmetic for the cyclic monodromy group (`repring`),
* intersection combinatorics of rational line arrangements (`arrangement`),
* local Hodge/spectral data of the cover-surface singularities (`localhodge`),
* the global assembly: fiber Hodge tables and the spectrum (`assembly`),
* twisted Frobenius point counts with polynomial fitting and diagonal
  Hodge-Deligne extraction (`pointcount`).
"""

from .arrangement import (
    LineArrangement,
    WeakCombData,
    boolean_arrangement,
    ceva_arrangement,
    epoly_V,
    intersection_data,
    parse_arrangement,
    weak_comb_data,
)
from .assembly import (
    AssemblyReport,
    Spectrum,
    SurfaceH3Data,
    assemble_all,
    check_identities,
    fermat_surface_table,
    fiber_tables,
    primitive_h2_weight1,
    primitive_h2_weight2,
    spectrum,
)
from .errors import MilnorHodgeError
from .localhodge import (
    LocalHodgeTable,
    OrdinarySing,
    link_hodge_tables,
    local_hodge_table,
    local_spectrum,
    milnor_basis,
)
from .pointcount import (
    CountTable,
    FittedPoly,
    count_classes,
    fit_polynomials,
    good_primes,
    hodge_from_counts,
    twisted_counts,
)
from .repring import HodgeTable, ReprClass, decode_characters

__version__ = "0.1.0"
