"""Equivariant Hodge invariants of line-arrangement Milnor fibers.

The package computes, exactly over the integers and rationals:

* representation-ring arithmetic for the cyclic monodromy group (`repring`),
* intersection combinatorics of rational line arrangements (`arrangement`),
* local Hodge/spectral data of the cover-surface singularities (`localhodge`),
* the global assembly: fiber Hodge tables and the spectrum (`assembly`),
* twisted Frobenius point counts with polynomial fitting and diagonal
  Hodge-Deligne extraction (`pointcount`).
"""

__version__ = "0.1.0"
