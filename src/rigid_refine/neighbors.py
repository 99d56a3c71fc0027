"""Exact nearest-neighbor search shared by Chamfer, matching cost and ICP.

A k-d tree (Friedman, Bentley & Finkel, ACM TOMS 1977) finds each query's
two nearest reference points in O(log M) expected time and O(N + M) memory.
The result is bit-identical to the brute-force scan over every (query,
reference) pair: the returned index is the lowest-index minimizer of the
elementwise squared distance, and the returned squared distance is that same
elementwise formula.

The kernel, _LaneTrees, searches a stack of lanes (trials) at once: one tree
holds the reference clouds of a group of lanes, each point tagged with its
lane in a fourth coordinate, and one query of the tagged rows answers every
lane of the group (see _LaneTrees). A lane whose nearest squared distance
overflows is a False entry of a per-lane mask. nearest is the kernel at one
lane, where no tag is needed.

A query skips work it can prove unneeded, and stays exact. Given a bound on
every query's nearest distance, the tree stops searching beyond it (Chamfer
of two clouds of equal size, where the largest gap max_i ||a_i - b_i||
bounds every nearest distance in both directions). ICP keeps a row's match,
without a search, while the pose moves that row less than half the gap to
its second-nearest point (synth._icp_lanes), a test with the rounding
margins of _surely_below. The rows left over go to the tree; its near ties
go to one vectorized scan of their lanes (_scan).

Chamfer of two paired clouds needs no search at all where the target is
sparse beside the gaps: one enumeration of each tree's close pairs
(_LaneTrees.pairs, a dual-tree fixed-radius search: Gray & Moore, "'N-Body'
Problems in Statistical Learning", NIPS 2000) names every candidate nearest
point (metrics._chamfers). A lane is enumerated only where a count of its
points per grid cube (_occupancy) caps its pairs at a fixed multiple of its
points (_LaneTrees.pair_bounds), so memory stays linear for any input.
"""

import numpy as np
from scipy.spatial import cKDTree

from .core import CHUNK_POINTS

# Rows whose two nearest squared tree distances differ by at most this
# fraction of the nearest are re-solved by a scan over that row. The tree's
# rounding is a few ulps, so any row whose nearest it could misorder against
# the elementwise formula, or whose tie it could break differently, is inside
# this gap.
TIE_GAP = 1e-9

# Relative margin on a tree distance, far above the tree's rounding: a bound
# is widened by it (the tree's bound is strict), and a test that one distance
# is below another passes only if it wins by it (_surely_below).
TREE_SLACK = 1e-6

# Absolute margin of the same tests, relative to a lane's coordinate scale
# max|x| + max|y| + 1 over the two clouds compared (_scale_slack). Coordinates
# computed from a pose (ICP's moved rows, their summed moves) are off by a few
# ulps of that scale, and a squared distance that underflows is off by less,
# so a test passed with this margin holds for the exact values, even at a
# distance of 0.
SCALE_SLACK = 1e-12

# The tree squares coordinate differences, so a distance past about 1.3e154
# overflows. Lane tags stay below this, and a cached ICP match is kept only
# below it.
_TREE_MAX_DISTANCE = 1e154

# Reference points per tagged tree: _LaneTrees searches a stack of lanes with
# M reference points each in groups of max(1, _GROUP_POINTS // M) lanes, for
# every caller. Chosen by measurement (see CHANGES.md); below 1002, so that
# the benchmark's ICP targets (501 points) and N=1024 Chamfer keep one
# untagged lane per tree.
_GROUP_POINTS = 1000

# A lane's close pairs are enumerated (_LaneTrees.pair_bounds) only while its
# _occupancy at cubes of the enumeration radius is at most this many times its
# points, which caps its pairs at 13.5 times as many, 54 M for a lane of M
# points. Chosen by measurement (see CHANGES.md): on refined chunks,
# enumeration beat the search up to an occupancy of 3.8 M, tied at 3.9 to
# 5.2 M and lost from 5.6 M; 4 beat 2, 3 and 6 where lanes lie on both sides.
_PAIR_OCCUPANCY = 4.0


class NonFiniteDistance(Exception):
    """A nearest squared distance overflowed, so no nearest point is defined."""


def _scale_slack(x, y):
    """SCALE_SLACK times each lane's coordinate scale max|x| + max|y| + 1, for
    (B, N, 3) and (B, M, 3) stacks, (B,); inf where the scale overflows, so
    that no test of that lane passes."""
    with np.errstate(over="ignore"):
        scale = np.abs(x).max(axis=(1, 2)) + np.abs(y).max(axis=(1, 2))
    return SCALE_SLACK * (scale + 1.0)


def _surely_below(near, far, slack):
    """Where a distance near is below a distance far by more than the rounding
    of either: near (1 + TREE_SLACK) + slack < far (1 - TREE_SLACK) - slack,
    with slack from _scale_slack. A near at or past _TREE_MAX_DISTANCE never
    passes, so a row whose squared distances may overflow reaches the tree
    (or the scan) and is masked there; so does one with a NaN distance or an
    inf slack (an overflow-scale lane), silently."""
    with np.errstate(over="ignore", invalid="ignore"):
        low = near * (1.0 + TREE_SLACK) + slack
        return (low < far * (1.0 - TREE_SLACK) - slack) & (low < _TREE_MAX_DISTANCE)


def _passing_distance(near, slack):
    """A far distance past which _surely_below(near, far, slack) holds,
    whatever the rounding of far."""
    return (near * (1.0 + TREE_SLACK) + 2.0 * slack) / (1.0 - TREE_SLACK)


def _scan(lane, query, ref):
    """The nearest point of each query row in its lane's cloud, by scanning
    every point of the lane: nn_oracle's own definition, vectorized over rows.

    lane (Q,) indexes the (B, M, 3) stack ref for each (Q, 3) query row.
    Returns (index, d2): index[i] is the smallest j minimizing the
    elementwise sum((query[i] - ref[lane[i], j]) ** 2), d2[i] that minimum
    (inf or NaN where it overflows, silently). Rows go in blocks of at most
    CHUNK_POINTS (row, point) pairs, so the difference tensor stays small.
    """
    index = np.empty(len(query), dtype=np.intp)
    d2 = np.empty(len(query))
    step = max(1, CHUNK_POINTS // ref.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(query), step):
            rows = slice(lo, lo + step)
            dist = np.sum((query[rows, None, :] - ref[lane[rows]]) ** 2, axis=2)
            index[rows] = dist.argmin(axis=1)
            d2[rows] = np.take_along_axis(dist, index[rows, None], axis=1)[:, 0]
    return index, d2


def _occupancy(ref, cell):
    """Each lane's sum, over a grid of cubes of side at least the lane's
    cell, of the squared count of its points in each cube: (B,) integers
    for a (B, M, 3) stack whose spread in each lane is finite and (B,)
    cells > 0.

    Two points no farther apart than cell lie in one cube or in two that
    touch, so a lane holds at most 27 / 2 times this sum pairs within cell:
    each of the 27 neighbours c' of a cube c adds n_c n_c' <= (n_c ** 2 +
    n_c' ** 2) / 2 ordered pairs. A lane has at most 2 ** 17 - 1 cubes an
    axis (its cubes grow past cell where its extent asks for more), and the
    keys of each lane are sorted once. The quotients x / side are off by
    less than 1e-10 of a cube, so a pair within cell / (1 + TREE_SLACK)
    never lands two cubes apart.
    """
    b, m = ref.shape[:2]
    flat = ref.reshape(b, 3 * m)
    lo = flat.min(axis=1)
    side = np.maximum(cell, (flat.max(axis=1) - lo) / (2**17 - 2))
    cube = flat - lo[:, None]
    cube /= side[:, None]
    np.floor(cube, out=cube)
    # Whole numbers below 2 ** 17, so the key is exact in a float.
    key = cube.reshape(ref.shape) @ np.array([2.0**34, 2.0**17, 1.0])
    key.sort(axis=1)
    # A point at place i of its lane's sorted keys, in a run of equal keys
    # from place s_i, adds 2 (i - s_i) + 1; a run of n adds n ** 2, and the
    # lane m ** 2 - 2 sum_i s_i.
    start = np.zeros((b, m), dtype=np.intp)
    np.not_equal(key[:, 1:], key[:, :-1], out=start[:, 1:], casting="unsafe")
    start *= np.arange(m)
    np.maximum.accumulate(start, axis=1, out=start)
    return m * m - 2 * start.sum(axis=1)


class _LaneTrees:
    """Exact nearest-neighbor search in each lane's own cloud, for a stack of
    (B, M, 3) reference clouds.

    Lanes are searched in groups of max(1, _GROUP_POINTS // M) consecutive
    lanes, one cKDTree per group, built when a search first needs it and kept
    for the next. In a group of more than one lane every point gets a fourth
    coordinate, slot * L, where slot is its lane's place in the group and
    L = 4 S + 1 for the largest |coordinate| S of the group's reference
    points. The tag difference of a lane's own points is exactly 0, so their
    tree distances are the 3-D ones; another lane's points are at least L
    away, beyond every in-lane distance between points whose coordinates are
    at most S in absolute value (at most 2 sqrt(3) S). A row whose nearest
    point still lies in another lane, as a query beyond S may find, is
    re-scanned against its own lane like a tie: such a query costs a re-scan,
    never exactness. The overall second neighbor is never farther than the
    in-lane one, so the tie flags can only grow and ICP's cached second
    distance can only shrink: both stay exact. A group whose tags would
    reach _TREE_MAX_DISTANCE (or whose S is not finite, as for an
    overflow-scale lane) is searched one lane at a time, untagged.

    Parameters
    ----------
    ref : ndarray, shape (B, M, 3)
        M >= 1.
    """

    def __init__(self, ref):
        b, m = ref.shape[:2]
        size = max(1, _GROUP_POINTS // m)
        self.ref = ref
        self.groups = []  # (first lane, last lane + 1, tree points, tag step or None)
        self.slot = np.zeros(b, dtype=np.intp)  # each lane's place in its group
        for start in range(0, b, size):
            stop = min(start + size, b)
            if stop - start > 1:
                # A Python float: an overflowing step is inf, silently.
                step = 4.0 * float(np.abs(ref[start:stop]).max()) + 1.0
                # Written so that a NaN step fails too.
                if (stop - start - 1) * step < _TREE_MAX_DISTANCE:
                    tags = np.repeat(np.arange(stop - start) * step, m)
                    points = np.column_stack([ref[start:stop].reshape(-1, 3), tags])
                    self.groups.append((start, stop, points, step))
                    self.slot[start:stop] = np.arange(stop - start)
                    continue
            self.groups.extend((lane, lane + 1, ref[lane], None) for lane in range(start, stop))
        self.trees = [None] * len(self.groups)
        self.starts = [start for start, _, _, _ in self.groups] + [len(ref)]

    def _tree(self, g, bound):
        """Group g's tree, built on first use, and the distance its search
        stops at: the group's largest bound widened by TREE_SLACK (the tree's
        bound is strict), or inf for no bound, a non-finite one or 0."""
        if self.trees[g] is None:
            self.trees[g] = cKDTree(self.groups[g][2])
        start, stop = self.groups[g][:2]
        limit = np.inf if bound is None else float(bound[start:stop].max())
        limit *= 1.0 + TREE_SLACK
        # Exact data (a zero bound), overflow or no bound: search it all.
        return self.trees[g], limit if 0.0 < limit < np.inf else np.inf

    def pair_bounds(self, reach):
        """Each lane's reach where the pairs that pairs() would enumerate in
        it are few enough, else 0.

        The tree enumerates to a reach widened by TREE_SLACK (see _tree);
        widened once more, it is the cell of the test. A lane qualifies when
        its cell is below _TREE_MAX_DISTANCE and below its group's tag step
        (so that no pair joins two lanes), the coordinates of an untagged
        lane span less than _TREE_MAX_DISTANCE / 4, and its _occupancy at
        that cell is at most _PAIR_OCCUPANCY * M; then it holds at most
        13.5 * _PAIR_OCCUPANCY * M pairs within the widened reach. A group
        enumerates to its largest qualified reach, so every other qualified
        lane of the group takes the test again at that reach, and gets 0
        where it fails; the lane that set the reach keeps it.

        Parameters
        ----------
        reach : ndarray, shape (B,)

        Returns
        -------
        ndarray, shape (B,)
        """
        most = _PAIR_OCCUPANCY * self.ref.shape[1]
        cap = np.full(len(self.ref), _TREE_MAX_DISTANCE)
        for start, stop, points, step in self.groups:
            if step is not None:
                cap[start:stop] = min(step, _TREE_MAX_DISTANCE)
                continue
            # cKDTree.query_pairs refuses a tree whose box has an overflowing
            # squared diagonal. A tagged group's is at most
            # 3 (2 S) ** 2 + ((slots - 1) L) ** 2 < 1.75 * _TREE_MAX_DISTANCE ** 2.
            with np.errstate(over="ignore"):
                if not np.ptp(points) < _TREE_MAX_DISTANCE / 4.0:
                    cap[start] = 0.0
        widen = (1.0 + TREE_SLACK) ** 2
        with np.errstate(over="ignore", invalid="ignore"):
            ok = reach * widen < cap  # False for an overflowed or NaN reach
        lanes = np.flatnonzero(ok)
        ok[lanes] = _occupancy(self.ref[lanes], reach[lanes] * widen) <= most
        group = np.maximum.reduceat(np.where(ok, reach, 0.0), self.starts[:-1])
        group = np.repeat(group, np.diff(self.starts))
        lanes = np.flatnonzero(ok & (group > reach))
        ok[lanes] = _occupancy(self.ref[lanes], group[lanes] * widen) <= most
        return np.where(ok, reach, 0.0)

    def pairs(self, bound):
        """Every pair of reference points of a lane that its group's tree
        puts no farther apart than the group's largest bound, widened by
        TREE_SLACK (see _tree), for the lanes with a positive bound. A group
        with no such lane is not enumerated, and the pairs of its other
        lanes are dropped: fewer than _GROUP_POINTS ** 2 / 2, the points of
        a tagged group.

        Parameters
        ----------
        bound : ndarray, shape (B,)
            From pair_bounds, whose cap keeps every pair within one lane.

        Returns
        -------
        ndarray of intp, shape (P, 2)
            Flat indices lane * M + row, the first below the second.
        """
        m = self.ref.shape[1]
        found = [np.empty((0, 2), dtype=np.intp)]
        for g, (start, stop, _, _) in enumerate(self.groups):
            keep = bound[start:stop] > 0.0
            if not keep.any():
                continue
            tree, limit = self._tree(g, bound)
            pairs = tree.query_pairs(limit, output_type="ndarray")
            if not keep.all():
                pairs = pairs[keep[pairs[:, 0] // m]]
            found.append(pairs + start * m)
        return np.concatenate(found)

    def search(self, lane, query, bound=None):
        """The nearest reference point of each query row in its lane's cloud.

        Parameters
        ----------
        lane : ndarray of intp, shape (Q,)
            Each row's lane, ascending.
        query : ndarray, shape (Q, 3)
        bound : ndarray, shape (B,), optional
            At least every nearest distance of the lane's rows; a group's
            tree searches no farther than its largest. A bound of 0 or a
            non-finite one searches everything, and so does no bound.

        Returns
        -------
        (ndarray of intp, shape (Q,), ndarray, shape (Q, 2), ndarray of bool, shape (B,))
            index[i] is the smallest j minimizing
            sum((query[i] - ref[lane[i], j]) ** 2); dist[i] is the tree's two
            nearest distances, the second inf beyond the bound, and both inf
            for a re-scanned row (ICP then re-queries it); finite is False for
            a lane with a row whose nearest squared distance is not finite,
            whose index entries are then meaningless.
        """
        m = self.ref.shape[1]
        slot = self.slot[lane]
        dist = np.empty((len(query), 2))
        first = np.empty(len(query), dtype=np.intp)  # the tree's nearest point
        cuts = np.searchsorted(lane, self.starts).tolist()
        for g, (_, _, _, step) in enumerate(self.groups):
            lo, hi = cuts[g], cuts[g + 1]
            if lo == hi:
                continue
            tree, limit = self._tree(g, bound)
            rows = query[lo:hi]
            if step is not None:
                rows = np.column_stack([rows, slot[lo:hi] * step])
            d, i = tree.query(rows, k=2, distance_upper_bound=limit)
            dist[lo:hi], first[lo:hi] = d, i[:, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            near2 = dist[:, 0] ** 2
            found = np.isfinite(near2)
            # A missing neighbor has index = the tree's size, a slot past the
            # group's last, so it is never the row's own.
            group_lane, index = np.divmod(first, m)
            # With M = 1, or a second neighbor beyond the bound, the second
            # distance is inf, so the row is not flagged: the bound is above
            # near (1 + TIE_GAP).
            scan = dist[:, 1] ** 2 - near2 <= TIE_GAP * near2
            scan |= group_lane != slot
            scan = np.flatnonzero(scan & found)
        finite = np.ones(len(self.ref), dtype=bool)
        if not found.all():
            finite[lane[~found]] = False
        if scan.size:
            dist[scan] = np.inf
            index[scan], d2 = _scan(lane[scan], query[scan], self.ref)
            finite[lane[scan][~np.isfinite(d2)]] = False
        return index, dist, finite


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
    lane = np.zeros(len(query), dtype=np.intp)
    index, _, finite = _LaneTrees(ref[None]).search(lane, query, np.array([bound], dtype=float))
    if not finite[0]:
        raise NonFiniteDistance("nearest squared distance overflowed to inf")
    with np.errstate(over="ignore", invalid="ignore"):
        return index, np.sum((query - ref[index]) ** 2, axis=1)
