"""Exact nearest-neighbor search shared by Chamfer, matching cost and ICP.

A k-d tree finds each query's two nearest reference points in O(log M)
expected time and O(N + M) memory. The result is bit-identical to the
brute-force scan over every (query, reference) pair: the returned index is
the lowest-index minimizer of the elementwise squared distance, and the
returned squared distance is that same elementwise formula.
"""

import numpy as np
from scipy.spatial import cKDTree

# Rows whose two nearest squared tree distances differ by at most this
# fraction of the nearest are re-solved by a scan over that row. The tree's
# rounding is a few ulps, so any row whose nearest it could misorder against
# the elementwise formula, or whose tie it could break differently, is inside
# this gap.
TIE_GAP = 1e-9


class NonFiniteDistance(Exception):
    """A nearest squared distance overflowed, so no nearest point is defined."""


def nearest(query, ref, tree=None):
    """Nearest reference point of every query point.

    Parameters
    ----------
    query : ndarray, shape (N, 3)
    ref : ndarray, shape (M, 3)
        Finite points, M >= 1.
    tree : cKDTree, optional
        A tree built over `ref`, for callers that query one reference
        repeatedly.

    Returns
    -------
    (ndarray of intp, shape (N,), ndarray, shape (N,))
        index[i] is the smallest j minimizing sum((query[i] - ref[j]) ** 2);
        d2[i] is that squared distance, summed over coordinates in order.

    Raises
    ------
    NonFiniteDistance
        If a query's nearest squared tree distance is not finite.
    """
    if tree is None:
        tree = cKDTree(ref)
    dist, idx = tree.query(query, k=2)
    index = idx[:, 0].copy()
    near2 = dist[:, 0] ** 2
    if not np.all(np.isfinite(near2)):
        raise NonFiniteDistance("nearest squared distance overflowed to inf")
    # With M = 1 the second distance is inf, so no row is flagged.
    for row in np.flatnonzero(dist[:, 1] ** 2 - near2 <= TIE_GAP * near2):
        index[row] = np.sum((query[row] - ref) ** 2, axis=1).argmin()
    d2 = np.sum((query - ref[index]) ** 2, axis=1)
    return index, d2
