"""numpy's LAPACK kernels for the hot paths, bound once, constant matrices
built once, and basic indices in place of index arrays.

``np.linalg.solve``, ``np.linalg.eigvalsh`` and ``np.linalg.inv`` are
Python wrappers: each converts and checks its arguments, enters an
``errstate`` and calls one gufunc of ``numpy.linalg._umath_linalg``.  On
float64 arrays the names below are those gufuncs, so they give the
wrappers' bits, lone or stacked, in about half the time (one 11x9 solve:
8 us against 15 us on a 2-core x86-64 host).  ``solve`` takes its right-hand sides as
columns, (..., n, n) and (..., n, k).  The one difference is a singular
system: the gufunc returns NaN (with numpy's invalid-value warning) where
the wrapper raises ``LinAlgError``.  The callers never pass one: the mass
matrix is positive definite, and a KKT system is solved only after its
contact-space inertia passed its condition check.  ``clip`` is likewise
the ufunc beneath ``np.clip`` (which, unlike ``np.minimum(np.maximum(...))``,
gives 0.0 and not -0.0 at a zero bound).

scipy's LAPACK is no substitute: scipy links its own OpenBLAS, and its
``dgesv`` and ``dsyevd`` do not give ``np.linalg``'s bits.
"""

from __future__ import annotations

from functools import cache

import numpy as np
from numpy.linalg import _umath_linalg

try:
    from numpy._core.umath import clip
except ImportError:                     # numpy 1.x
    from numpy.core.umath import clip

solve = _umath_linalg.solve
eigvalsh = _umath_linalg.eigvalsh_lo    # ascending, from the lower triangle
inv = _umath_linalg.inv


def basic_index(rows: list[int]):
    """``rows`` as a basic slice when they run evenly upwards, else as an
    index array: numpy serves a slice as a view, with no gather."""
    first, last = rows[0], rows[-1]
    step = rows[1] - first if len(rows) > 1 else 1
    if step > 0 and rows == list(range(first, last + 1, step)):
        return slice(first, last + 1, step)
    return np.array(rows)


@cache
def eye(n: int, m: int | None = None, k: int = 0) -> np.ndarray:
    """``np.eye(n, m, k)``, built once per shape and read-only."""
    e = np.eye(n, m, k)
    e.flags.writeable = False
    return e
