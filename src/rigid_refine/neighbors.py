"""Exact nearest-neighbor search shared by Chamfer, matching cost and ICP.

A k-d tree finds each query's two nearest reference points in O(log M)
expected time and O(N + M) memory. The result is bit-identical to the
brute-force scan over every (query, reference) pair: the returned index is
the lowest-index minimizer of the elementwise squared distance, and the
returned squared distance is that same elementwise formula.

A query skips work it can prove unneeded, and stays exact. Given a bound on
every query's nearest distance, the tree stops searching beyond it
(Chamfer of correspondence-aligned clouds, where each point's correspondent
bounds its nearest distance). ICP keeps a row's match while the pose moves
that row less than half the gap to its second-nearest point, and asks the
tree only about the other rows (synth._icp_lanes).
"""

import numpy as np
from scipy.spatial import cKDTree

# Rows whose two nearest squared tree distances differ by at most this
# fraction of the nearest are re-solved by a scan over that row. The tree's
# rounding is a few ulps, so any row whose nearest it could misorder against
# the elementwise formula, or whose tie it could break differently, is inside
# this gap.
TIE_GAP = 1e-9

# Relative margin on a tree distance, far above the tree's rounding: a bound
# is widened by it (the tree's bound is strict), and a cached ICP match is
# kept only if it wins by it.
TREE_SLACK = 1e-6


class NonFiniteDistance(Exception):
    """A nearest squared distance overflowed, so no nearest point is defined."""


def _query(tree, query, ref, bound=np.inf):
    """(index, dist): the exact nearest index of every query point (as
    `nearest`) and the tree's two nearest distances, shape (N, 2).

    A second neighbor beyond the bound comes back as inf. Raises
    NonFiniteDistance as `nearest` does.
    """
    limit = bound * (1.0 + TREE_SLACK)
    if 0.0 < limit < np.inf:
        dist, idx = tree.query(query, k=2, distance_upper_bound=limit)
    else:  # exact data (a zero bound), overflow or no bound: search it all
        dist, idx = tree.query(query, k=2)
    index = idx[:, 0].copy()
    near2 = dist[:, 0] ** 2
    if not np.all(np.isfinite(near2)):
        raise NonFiniteDistance("nearest squared distance overflowed to inf")
    # With M = 1, or a second neighbor beyond the bound, the second distance
    # is inf, so the row is not flagged: the bound is above near (1 + TIE_GAP).
    for row in np.flatnonzero(dist[:, 1] ** 2 - near2 <= TIE_GAP * near2):
        index[row] = np.sum((query[row] - ref) ** 2, axis=1).argmin()
    return index, dist


def nearest(query, ref, bound=np.inf):
    """Nearest reference point of every query point.

    Parameters
    ----------
    query : ndarray, shape (N, 3)
    ref : ndarray, shape (M, 3)
        Finite points, M >= 1.
    bound : float, optional
        At least every query point's nearest distance; the tree searches no
        farther. A bound of 0 or a non-finite one searches everything.

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
    index, _ = _query(cKDTree(ref), query, ref, bound)
    d2 = np.sum((query - ref[index]) ** 2, axis=1)
    return index, d2
